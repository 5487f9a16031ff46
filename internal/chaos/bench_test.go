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
// pure function of its options on one worker, so the counts repeat. The
// ceilings keep the margins the previous pins left over the sweeps' costs
// before the shrinker replayed from a checkpoint, the kind and decision
// memo was always on and each worker kept its PRNG and schedule buffer:
// per run, uniform 374 allocations / 59.2 KiB then, under ceilings of 640
// and 80.6 (1.71× and 1.36×); adaptive with shrinks 1 079 / 123.7 KiB
// under 1 969 and 205.3 (1.82× and 1.66×). Now uniform costs 366 / 45.0
// KiB and adaptive with shrinks 530 / 56.5 KiB.
func TestSweepAllocationPins(t *testing.T) {
	cases := []struct {
		name              string
		opts              Options
		maxAllocs, maxKiB float64 // per run
	}{
		{"uniform", uniformCell, 1.71 * 366, 1.36 * 45.0},
		{"adaptive+shrink", adaptiveShrinkCell, 1.82 * 530, 1.66 * 56.5},
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
