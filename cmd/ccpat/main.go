// Command ccpat runs a consensus protocol and prints its communication
// pattern — the partial order <_I on message triples (p, q, k) — as a
// layered ASCII diagram or Graphviz DOT. With -scheme it instead enumerates
// every failure-free pattern of the protocol.
//
// Usage:
//
//	ccpat -proto tree -n 7 -inputs 1111111
//	ccpat -proto chain -n 4 -inputs 1011 -dot
//	ccpat -proto perverse -inputs 1111 -scheme
//	ccpat -proto haltingcommit -n 5 -inputs 11111 -fail 0:4
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	consensus "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ccpat:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		protoName = flag.String("proto", "tree", "protocol: "+strings.Join(consensus.ProtocolNames(), ", "))
		n         = flag.Int("n", 7, "number of processors")
		inputsStr = flag.String("inputs", "", "input vector, e.g. 1011 (default: all ones)")
		seed      = flag.Int64("seed", 1, "scheduler seed")
		dot       = flag.Bool("dot", false, "emit Graphviz DOT instead of ASCII")
		schemeAll = flag.Bool("scheme", false, "enumerate all failure-free patterns for the inputs")
		failSpec  = flag.String("fail", "", "failure injections proc:afterStep, comma separated, e.g. 0:4,2:9")
		trace     = flag.Bool("trace", false, "print the full event trace of the run")
	)
	flag.Parse()

	proto, err := consensus.ProtocolByName(*protoName, *n)
	if err != nil {
		return err
	}
	inputs := make([]consensus.Bit, proto.N())
	for i := range inputs {
		inputs[i] = consensus.One
	}
	if *inputsStr != "" {
		inputs, err = consensus.ParseInputs(*inputsStr)
		if err != nil {
			return err
		}
		if len(inputs) != proto.N() {
			return fmt.Errorf("protocol %s wants %d inputs, got %d", proto.Name(), proto.N(), len(inputs))
		}
	}

	if *schemeAll {
		set, err := consensus.EnumeratePatterns(proto, inputs, consensus.SchemeOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("%s on inputs %s: %d failure-free pattern(s)\n\n", proto.Name(), consensus.FormatInputs(inputs), set.Len())
		for i, p := range set.Patterns() {
			fmt.Printf("pattern %d (%d messages, depth %d):\n%s\n", i+1, p.Size(), p.Depth(), p.RenderASCII())
		}
		return nil
	}

	failures, err := parseFailures(*failSpec)
	if err != nil {
		return err
	}
	runResult, err := consensus.RunWithOptions(proto, inputs, consensus.RunnerOptions{Seed: *seed, Failures: failures})
	if err != nil {
		return err
	}
	fmt.Printf("%s on inputs %s (seed %d): %d events, %d messages\n",
		proto.Name(), consensus.FormatInputs(inputs), *seed, runResult.Steps(), runResult.MessagesSent())
	for p := 0; p < proto.N(); p++ {
		pid := consensus.ProcID(p)
		status := "undecided"
		if d, ok := runResult.DecisionOf(pid); ok {
			status = d.String()
		}
		if !runResult.Nonfaulty(pid) {
			status += " (failed)"
		}
		fmt.Printf("  %s: %s\n", pid, status)
	}
	if *trace {
		fmt.Println()
		for _, line := range runResult.Trace() {
			fmt.Println(line)
		}
	}
	pat := consensus.PatternOf(runResult)
	fmt.Println()
	if *dot {
		fmt.Print(pat.RenderDOT(proto.Name()))
	} else {
		fmt.Print(pat.RenderASCII())
	}
	return nil
}

func parseFailures(spec string) ([]consensus.FailureAt, error) {
	if spec == "" {
		return nil, nil
	}
	var out []consensus.FailureAt
	for _, part := range strings.Split(spec, ",") {
		bits := strings.SplitN(part, ":", 2)
		if len(bits) != 2 {
			return nil, fmt.Errorf("bad failure spec %q (want proc:afterStep)", part)
		}
		proc, err := strconv.Atoi(bits[0])
		if err != nil {
			return nil, fmt.Errorf("bad processor in %q: %w", part, err)
		}
		step, err := strconv.Atoi(bits[1])
		if err != nil {
			return nil, fmt.Errorf("bad step in %q: %w", part, err)
		}
		out = append(out, consensus.FailureAt{Proc: consensus.ProcID(proc), AfterStep: step})
	}
	return out, nil
}
