// Command ccexp runs the reproduction experiments E1–E9, one per figure or
// quantitative claim of the paper, printing the paper's claim next to what
// the implementation measured. The output of a full run is recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	ccexp               # all experiments, exhaustive
//	ccexp -quick        # all experiments, skipping the exhaustive passes
//	ccexp -e E4         # a single experiment
//	ccexp -deep         # add the N=4 failure-free solver checks to E1–E3
//	ccexp -timeout 30s  # bound the wall clock; partial reports, exit 3
//	ccexp -reduce both  # reduced conformance passes; with -deep, also
//	                    # the star(4) one-failure cell (infeasible unreduced)
//
// Exit codes follow the cccheck convention: 0 all ok, 1 a measurement
// failed, 3 the timeout expired and the reports cover a prefix only.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	consensus "repro"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		which   = flag.String("e", "all", "experiment to run: E1..E9 or all")
		quick   = flag.Bool("quick", false, "skip the exhaustive model-checking passes")
		deep    = flag.Bool("deep", false, "add the N=4 failure-free solver checks to E1–E3 (ignored with -quick)")
		timeout = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); on expiry partial reports are printed and the exit code is 3")
		reduce  = flag.String("reduce", "none", "state-space reduction for the conformance passes: none, ample, symmetry, both, elide; verdicts are unchanged, and -deep additionally runs the star(4) one-failure cell")
	)
	flag.Parse()

	red, err := consensus.ParseReduction(*reduce)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccexp: %v\n", err)
		return 1
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := consensus.ExperimentOptions{Quick: *quick, Deep: *deep, Context: ctx, Reduction: red}
	runners := map[string]func(experiments.Options) experiments.Report{
		"E1": experiments.E1Figure1Tree,
		"E2": experiments.E2Figure2Star,
		"E3": experiments.E3Figure3Chain,
		"E4": experiments.E4Figure4Perverse,
		"E5": experiments.E5Lattice,
		"E6": experiments.E6Theorem7,
		"E7": experiments.E7Theorem2,
		"E8": experiments.E8MessageComplexity,
		"E9": experiments.E9Transforms,
	}

	total := 1
	var reports []consensus.ExperimentReport
	if strings.EqualFold(*which, "all") {
		total = len(runners)
		reports = consensus.Experiments(opts)
	} else {
		f, ok := runners[strings.ToUpper(*which)]
		if !ok {
			fmt.Fprintf(os.Stderr, "ccexp: unknown experiment %q (want E1..E9 or all)\n", *which)
			return 1
		}
		reports = []consensus.ExperimentReport{f(opts)}
	}

	failed, partial := 0, 0
	for _, r := range reports {
		fmt.Println(r)
		switch {
		case r.Partial:
			partial++
		case !r.OK:
			failed++
		}
	}
	if skipped := total - len(reports); skipped > 0 {
		fmt.Printf("TIMEOUT: %d experiment(s) not started\n", skipped)
	}
	switch {
	case failed > 0:
		fmt.Fprintf(os.Stderr, "ccexp: %d experiment(s) failed\n", failed)
		return 1
	case partial > 0 || total > len(reports):
		fmt.Printf("%d experiment(s) ran before the timeout; results are partial\n", len(reports))
		return 3
	default:
		fmt.Printf("%d experiment(s) ok\n", len(reports))
		return 0
	}
}
