package chaos

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/protocols"
	"repro/internal/taxonomy"
)

// The two cells of the chaos-sweep benchmark workload, at tree(7) against
// WT-TC: crash-only uniform runs that all pass, and omission-only adaptive
// runs that nearly all violate and are shrunk.
var (
	uniformCell        = Options{Runs: 200, Seed: 1984, Parallel: 1, MaxFailures: -1, Minimize: true}
	adaptiveShrinkCell = Options{Runs: 100, Seed: 1984, Parallel: 1, MaxFailures: 0, Minimize: true,
		Adversary: AdversaryAdaptive, OmissionBudget: 2, MobileOmissions: 1}
)

func sweepTree7(tb testing.TB, opts Options) *Report {
	rep, err := Run(context.Background(), protocols.Tree{Procs: 7}, problem(taxonomy.WT, taxonomy.TC), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

func benchmarkSweep(b *testing.B, opts Options) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweepTree7(b, opts)
	}
	b.ReportMetric(float64(b.N*opts.Runs)/b.Elapsed().Seconds(), "runs/s")
}

func BenchmarkSweepUniform(b *testing.B)        { benchmarkSweep(b, uniformCell) }
func BenchmarkSweepAdaptiveShrink(b *testing.B) { benchmarkSweep(b, adaptiveShrinkCell) }

// TestSweepAllocationPins bounds what a run costs the heap. A sweep is a
// pure function of its options on one worker, so the counts repeat; the
// ceilings are 55 % of the allocations and 40 % of the bytes the same
// sweeps cost at 1b5fe81, where every event cloned the configuration into
// a history (per run: uniform 1 163 allocations / 201.4 KiB, adaptive with
// shrinks 3 580 / 513.3 KiB).
func TestSweepAllocationPins(t *testing.T) {
	cases := []struct {
		name              string
		opts              Options
		maxAllocs, maxKiB float64 // per run
	}{
		{"uniform", uniformCell, 0.55 * 1163, 0.40 * 201.4},
		{"adaptive+shrink", adaptiveShrinkCell, 0.55 * 3580, 0.40 * 513.3},
	}
	for _, tc := range cases {
		sweepTree7(t, tc.opts) // warm: lazily built tables are not a run's cost
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := sweepTree7(t, tc.opts)
		runtime.ReadMemStats(&after)
		runs := float64(rep.Runs)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / runs
		t.Logf("%s: %.0f allocations, %.1f KiB per run (%d violated)", tc.name, allocs, kib, rep.Violated)
		if allocs > tc.maxAllocs || kib > tc.maxKiB {
			t.Errorf("%s: %.0f allocations, %.1f KiB per run; ceilings %.0f and %.1f", tc.name, allocs, kib, tc.maxAllocs, tc.maxKiB)
		}
	}
}
