// Command cccheck model-checks a protocol against a consensus problem: it
// exhaustively explores every reachable configuration over every input
// vector, injecting up to -maxfail fail-stop failures, and reports any
// violation of the decision rule, the consistency constraint, or the
// termination condition. With -safety it additionally runs the Theorem 2
// safe-state analysis (concurrency sets, bias, Corollary 6), unreduced or
// under -reduce elide, whose census is the same: the summary line and the
// unsafe states agree between the two, while the Corollary 6 lines come in
// admission order and may differ. With -trace it prints the first
// violation's counterexample: the initial configuration and the schedule
// from it, a run chaos.Evaluate replays.
//
// With -replay it instead re-executes a ccchaos or cclive violation trace,
// under the decision rule the trace records, and re-asserts that the
// recorded schedule still exhibits the recorded violation.
//
// Usage:
//
//	cccheck -proto tree -n 3 -problem WT-TC
//	cccheck -proto star -n 3 -problem WT-TC -trace
//	cccheck -proto fullexchange -n 3 -problem WT-TC -safety -maxfail 1
//	cccheck -proto fullexchange -n 3 -problem WT-TC -safety -maxfail 1 -reduce elide
//	cccheck -replay traces/chain-st-ST-IC-run00042.json
//
// Exit codes: 0 conforms, 1 error (or trace diverged), 2 violations found
// (or trace reproduced), 3 partial results only (node budget exhausted or
// -timeout hit; the summary covers the visited prefix).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	consensus "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the whole command: flags from args, the report to out, diagnostics
// to standard error, and the exit code as its result.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("cccheck", flag.ExitOnError)
	var (
		protoName = fs.String("proto", "tree", "protocol: "+strings.Join(consensus.ProtocolNames(), ", "))
		n         = fs.Int("n", 3, "number of processors (keep small: the exploration is exhaustive)")
		problem   = fs.String("problem", "WT-TC", "problem: {WT,ST,HT}-{IC,TC}")
		maxFail   = fs.Int("maxfail", 2, "maximum injected failures per run")
		maxNodes  = fs.Int("maxnodes", 0, "node budget (0 = default)")
		timeout   = fs.Duration("timeout", 0, "exploration wall-clock budget (0 = none); on expiry partial results are reported")
		reduce    = fs.String("reduce", "none", "state-space reduction: none, ample, symmetry, both, or elide (reduced runs keep the verdict; node counts describe the reduced graph; elide alone keeps the full state census, so -safety accepts it)")
		trace     = fs.Bool("trace", false, "print the event trace to the first violation")
		safety    = fs.Bool("safety", false, "run the Theorem 2 safe-state analysis")
		replay    = fs.String("replay", "", "replay a ccchaos or cclive trace file and re-assert its violation")
		omitBudg  = fs.Int("omission-budget", 0, "maximum omission faults per run (0 = none): the adversary may suppress up to this many buffered deliveries")
		mobileOm  = fs.Int("mobile-omissions", 0, "cap on simultaneously omission-faulty processors (0 = unbounded); the faulty set moves as deliveries succeed")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return an error

	if *replay != "" {
		return replayTrace(*replay, out)
	}

	proto, err := consensus.ProtocolByName(*protoName, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cccheck:", err)
		return 1
	}
	prob, err := consensus.ParseProblem(*problem)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cccheck:", err)
		return 1
	}
	if *mobileOm > 0 && *omitBudg == 0 {
		fmt.Fprintln(os.Stderr, "cccheck: -mobile-omissions needs -omission-budget")
		return 1
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	reduction, err := consensus.ParseReduction(*reduce)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cccheck:", err)
		return 1
	}
	if *safety && !reduction.CensusExact() {
		fmt.Fprintln(os.Stderr, "cccheck: -safety needs the full state census; run it with -reduce none or -reduce elide")
		return 1
	}

	if *omitBudg > 0 && (reduction == consensus.ReduceSymmetry || reduction == consensus.ReduceBoth) {
		fmt.Fprintln(os.Stderr, "cccheck: note: symmetry is off under omission budgets (see DESIGN.md §8)")
	}

	opts := consensus.CheckOptions{
		MaxFailures: *maxFail, MaxNodes: *maxNodes,
		TrackTraces: *trace, Reduction: reduction,
		OmissionBudget: *omitBudg, MobileOmissions: *mobileOm,
	}
	x, err := consensus.CheckContext(ctx, proto, prob, opts)
	if err != nil && (x == nil || !x.Status.Partial()) {
		fmt.Fprintln(os.Stderr, "cccheck:", err)
		return 1
	}

	fmt.Fprintf(out, "%s vs %s: %d configurations, %d states, %d terminal\n",
		proto.Name(), prob.Name(), x.NodeCount, len(x.States), x.Terminals)
	if *omitBudg > 0 {
		fmt.Fprintf(out, "omission budget %d, mobile cap %d\n", *omitBudg, *mobileOm)
	}
	if reduction != consensus.ReduceNone {
		rs := x.Reduction
		fmt.Fprintf(out, "reduction %s: %d ample + %d full expansions, %d proviso fallbacks, %d symmetry-pruned + %d elision-pruned successors\n",
			reduction, rs.AmpleNodes, rs.FullNodes, rs.ProvisoFallbacks, rs.SymmetryPrunes, rs.ElisionPrunes)
	}
	if x.Status.Partial() {
		fmt.Fprintf(out, "PARTIAL (%s): %d nodes visited, %d frontier nodes unexpanded; results below cover the visited prefix only\n",
			x.Status, x.NodeCount, x.FrontierSize)
	}
	if x.Conforms() {
		if x.Status.Partial() {
			fmt.Fprintln(out, "no violation found in the visited prefix (NOT a proof of conformance)")
		} else {
			fmt.Fprintln(out, "CONFORMS: no violation found")
		}
	} else {
		fmt.Fprintf(out, "VIOLATES: %d violation(s); first:\n  %s\n", len(x.Violations), x.Violations[0])
		if *trace {
			fmt.Fprintln(out, "trace to first violation:")
			for _, line := range x.FirstTraceLines() {
				fmt.Fprintln(out, "  "+line)
			}
		}
	}

	if *safety {
		rep := x.Safety()
		// Unsafe states found on a prefix are real (concurrency sets only
		// grow as the walk goes on); their absence is not a finding.
		caveat := ""
		if rep.Partial {
			caveat = " in the visited prefix (NOT a proof that every state is safe)"
		}
		fmt.Fprintf(out, "\nsafe-state analysis: %d operational states, %d unsafe, %d Corollary 6 violation(s)%s\n",
			rep.TotalStates, len(rep.Unsafe), len(rep.Corollary6), caveat)
		for i, u := range rep.Unsafe {
			if i >= 5 {
				fmt.Fprintf(out, "  … and %d more\n", len(rep.Unsafe)-5)
				break
			}
			fmt.Fprintf(out, "  unsafe: %s\n    reason: %s\n", u.Key, u.Reason)
		}
		for i, v := range rep.Corollary6 {
			if i >= 3 {
				fmt.Fprintf(out, "  … and %d more\n", len(rep.Corollary6)-3)
				break
			}
			fmt.Fprintf(out, "  corollary 6: %s\n", v.Detail)
		}
	}

	switch {
	case !x.Conforms():
		return 2
	case x.Status.Partial():
		return 3
	default:
		return 0
	}
}

// replayTrace re-executes a ccchaos or cclive trace and re-asserts the
// recorded violation. Exit 2 means the violation reproduced identically;
// exit 1 means the replay diverged from the recording.
func replayTrace(path string, out io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cccheck:", err)
		return 1
	}
	t, err := consensus.DecodeChaosTrace(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cccheck:", err)
		return 1
	}
	if t.ProtoArg == "" {
		fmt.Fprintln(os.Stderr, "cccheck: trace has no protoArg; cannot resolve the protocol")
		return 1
	}
	proto, err := consensus.ProtocolByName(t.ProtoArg, t.N)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cccheck:", err)
		return 1
	}
	prob, err := consensus.ParseProblem(t.Problem)
	if err == nil && t.Rule != "" {
		prob.Rule, err = consensus.ParseRule(t.Rule)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cccheck:", err)
		return 1
	}

	fmt.Fprintf(out, "replaying %s: %s vs %s, inputs %s, %d events (run %d of sweep seed %d)\n",
		path, t.Protocol, t.Problem, t.Inputs, len(t.Schedule), t.RunIndex, t.SweepSeed)
	res, err := consensus.ReplayChaosTrace(t, proto, prob)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cccheck:", err)
		return 1
	}
	for _, v := range res.Violations {
		fmt.Fprintln(out, "  "+v.String())
	}
	if res.Reproduced {
		fmt.Fprintln(out, "REPRODUCED: replay exhibits the recorded violation(s) exactly")
		return 2
	}
	fmt.Fprintf(out, "DIVERGED: recorded %d violation(s), replay produced %d — the protocol or checker changed since recording\n",
		len(t.Violations), len(res.Violations))
	return 1
}
