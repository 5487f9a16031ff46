// Command ccchaos runs a seeded, parallel chaos sweep of a protocol against
// a consensus problem: thousands of failure-injected random executions,
// each checked for the decision rule, the consistency constraint, and the
// termination condition, with every violating schedule shrunk by
// delta-debugging to a locally minimal counterexample and written as a
// replayable JSON trace (see cccheck -replay).
//
// The sweep is a pure function of -seed and its options: same seed, same
// flags, byte-identical traces, regardless of -parallel.
//
// Usage:
//
//	ccchaos -proto tree -n 3 -problem WT-TC -runs 2000 -seed 1
//	ccchaos -proto chain-st -n 3 -problem ST-IC -trace-dir traces
//	cccheck -replay traces/chain-st-ST-IC-run00042.json
//
// Exit codes: 0 clean, 1 usage or I/O error, 2 violations found (or, like a
// malformed flag, a negative -runs or -max-steps: a sweep that would test
// nothing is refused, not passed), 3 sweep interrupted before completing.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	consensus "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: flags from args, the report to stdout,
// diagnostics to stderr, and the exit code as its result.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccchaos", flag.ExitOnError)
	var (
		protoName = fs.String("proto", "tree", "protocol: "+strings.Join(consensus.ProtocolNames(), ", "))
		n         = fs.Int("n", 3, "number of processors")
		problem   = fs.String("problem", "WT-TC", "problem: {WT,ST,HT}-{IC,TC}")
		runs      = fs.Int("runs", 1000, "number of randomized executions")
		seed      = fs.Int64("seed", 1, "sweep seed; equal seeds and flags give byte-identical traces")
		parallel  = fs.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS); affects speed only, never results")
		maxFail   = fs.Int("max-failures", -1, "maximum injected failures per run (-1 = N-1, 0 = failure-free)")
		maxSteps  = fs.Int("max-steps", 10_000, "per-run step budget")
		timeout   = fs.Duration("timeout", 0, "whole-sweep wall-clock budget (0 = none); on expiry partial results are reported")
		minimize  = fs.Bool("minimize", true, "shrink violating schedules to 1-minimal counterexamples")
		traceDir  = fs.String("trace-dir", "", "directory for violation traces (empty = don't write)")
		inputsArg = fs.String("inputs", "", "fixed input vector like 101 (empty = random per run)")
		verbose   = fs.Bool("v", false, "print every failure, not just the first five")
		adversary = fs.String("adversary", "uniform", "scheduling adversary: uniform, delay, or adaptive")
		omitBudg  = fs.Int("omission-budget", 0, "maximum omission faults per run (0 = none): the adversary may suppress up to this many buffered deliveries")
		mobileOm  = fs.Int("mobile-omissions", 0, "cap on simultaneously omission-faulty processors (0 = unbounded); the faulty set moves as deliveries succeed")
		jsonOut   = fs.Bool("json", false, "print the sweep report as JSON (per-run and aggregate injection accounting) instead of text")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return an error

	proto, err := consensus.ProtocolByName(*protoName, *n)
	if err != nil {
		fmt.Fprintln(stderr, "ccchaos:", err)
		return 1
	}
	prob, err := consensus.ParseProblem(*problem)
	if err != nil {
		fmt.Fprintln(stderr, "ccchaos:", err)
		return 1
	}
	if *mobileOm > 0 && *omitBudg == 0 {
		fmt.Fprintln(stderr, "ccchaos: -mobile-omissions needs -omission-budget")
		return 1
	}
	opts := consensus.ChaosOptions{
		Runs:            *runs,
		Seed:            *seed,
		Parallel:        *parallel,
		MaxFailures:     *maxFail,
		MaxSteps:        *maxSteps,
		Minimize:        *minimize,
		Adversary:       *adversary,
		OmissionBudget:  *omitBudg,
		MobileOmissions: *mobileOm,
	}
	if *inputsArg != "" {
		in, err := consensus.ParseInputs(*inputsArg)
		if err != nil {
			fmt.Fprintln(stderr, "ccchaos:", err)
			return 1
		}
		opts.Inputs = [][]consensus.Bit{in}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	rep, sweepErr := consensus.Chaos(ctx, proto, prob, opts)
	if rep == nil {
		fmt.Fprintln(stderr, "ccchaos:", sweepErr)
		if errors.Is(sweepErr, consensus.ErrChaosOptions) {
			return 2
		}
		return 1
	}
	if sweepErr != nil && !errors.Is(sweepErr, context.DeadlineExceeded) && !errors.Is(sweepErr, context.Canceled) {
		fmt.Fprintln(stderr, "ccchaos:", sweepErr)
		return 1
	}

	quiet := *jsonOut
	if !quiet {
		fmt.Fprintf(stdout, "%s vs %s: %d runs, seed %d (%s)\n", rep.Proto, rep.Problem.Name(), rep.Runs, rep.Seed, rep.Status)
		fmt.Fprintf(stdout, "  passed %d, violated %d, panicked %d, unresolved %d, aborted %d\n",
			rep.Passed, rep.Violated, rep.Panicked, rep.Unresolved, rep.Aborted)
		fmt.Fprintf(stdout, "  failure injections: %d planned, %d fired, %d unfired\n",
			rep.InjectionsPlanned, rep.InjectionsFired, rep.InjectionsUnfired)
		if rep.Adversary != consensus.ChaosAdversaryUniform || rep.OmissionBudget > 0 {
			fmt.Fprintf(stdout, "  adversary %s, omission budget %d (mobile cap %d), %d omission(s) injected\n",
				rep.Adversary, rep.OmissionBudget, rep.MobileOmissions, rep.Omissions)
		}
	}

	written := 0
	for i, f := range rep.Failures {
		if !quiet && (*verbose || i < 5) {
			fmt.Fprintf(stdout, "  run %d (seed %d, inputs %s): %s\n", f.RunIndex, f.Seed, consensus.FormatInputs(f.Inputs), f.Violations[0])
			if f.Outcome == consensus.ChaosOutcomeViolated {
				fmt.Fprintf(stdout, "    schedule: %d events (shrunk from %d, %d candidates tried)\n",
					len(f.Schedule), f.OriginalSteps, f.ShrinkCandidates)
			}
		} else if !quiet && i == 5 {
			fmt.Fprintf(stdout, "  … and %d more failures (use -v to list all)\n", len(rep.Failures)-5)
		}
		if *traceDir != "" {
			path, err := consensus.WriteChaosTrace(*traceDir, "", *protoName, rep, f, cmp.Or(opts.MaxSteps, 10_000))
			if err != nil {
				fmt.Fprintln(stderr, "ccchaos:", err)
				return 1
			}
			written++
			if !quiet && (*verbose || i < 5) {
				fmt.Fprintf(stdout, "    trace: %s\n", path)
			}
		}
	}
	if !quiet && written > 0 {
		fmt.Fprintf(stdout, "  %d trace(s) written to %s (replay with: cccheck -replay <file>)\n", written, *traceDir)
	}
	if *jsonOut {
		if err := emitJSON(stdout, rep); err != nil {
			fmt.Fprintln(stderr, "ccchaos:", err)
			return 1
		}
	}

	switch {
	case rep.Status == consensus.ChaosStatusInterrupted:
		if !quiet {
			fmt.Fprintln(stdout, "INTERRUPTED: partial results above")
		}
		return 3
	case !rep.Clean():
		if !quiet {
			fmt.Fprintf(stdout, "VIOLATES: %d failing run(s)\n", len(rep.Failures))
		}
		return 2
	default:
		if !quiet {
			fmt.Fprintln(stdout, "OK: no violations found")
		}
		return 0
	}
}

// jsonReport is the machine-readable sweep summary: the aggregate injection
// accounting plus one entry per run, so consumers can tell which runs
// actually exercised their planned faults (injections_unfired per run, not
// just in the aggregate).
type jsonReport struct {
	Proto             string                   `json:"proto"`
	Problem           string                   `json:"problem"`
	Seed              int64                    `json:"seed"`
	Runs              int                      `json:"runs"`
	Adversary         string                   `json:"adversary"`
	OmissionBudget    int                      `json:"omission_budget,omitempty"`
	MobileOmissions   int                      `json:"mobile_omissions,omitempty"`
	Status            string                   `json:"status"`
	Passed            int                      `json:"passed"`
	Violated          int                      `json:"violated"`
	Panicked          int                      `json:"panicked"`
	Unresolved        int                      `json:"unresolved"`
	Aborted           int                      `json:"aborted"`
	InjectionsPlanned int                      `json:"injections_planned"`
	InjectionsFired   int                      `json:"injections_fired"`
	InjectionsUnfired int                      `json:"injections_unfired"`
	Omissions         int                      `json:"omissions"`
	Failures          int                      `json:"failures"`
	RunStats          []consensus.ChaosRunStat `json:"run_stats"`
}

func emitJSON(w io.Writer, rep *consensus.ChaosReport) error {
	out := jsonReport{
		Proto:             rep.Proto,
		Problem:           rep.Problem.Name(),
		Seed:              rep.Seed,
		Runs:              rep.Runs,
		Adversary:         rep.Adversary,
		OmissionBudget:    rep.OmissionBudget,
		MobileOmissions:   rep.MobileOmissions,
		Status:            rep.Status.String(),
		Passed:            rep.Passed,
		Violated:          rep.Violated,
		Panicked:          rep.Panicked,
		Unresolved:        rep.Unresolved,
		Aborted:           rep.Aborted,
		InjectionsPlanned: rep.InjectionsPlanned,
		InjectionsFired:   rep.InjectionsFired,
		InjectionsUnfired: rep.InjectionsUnfired,
		Omissions:         rep.Omissions,
		Failures:          len(rep.Failures),
		RunStats:          rep.RunStats,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}
