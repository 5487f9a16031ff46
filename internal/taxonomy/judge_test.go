package taxonomy

import (
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
)

// TestAllocsJudgeClean pins what judging costs when there is nothing to
// report: nothing. The explorer calls the judge per decision edge and per
// admitted node, the sweeper folds it over every step of every run.
func TestAllocsJudgeClean(t *testing.T) {
	run := completeRun(t, protocols.HaltingCommit{Procs: 4}, "1101")
	final := run.Final()
	if !final.Quiescent() {
		t.Fatal("test bug: the run is not maximal")
	}
	ledger := make([]sim.Decision, final.N())
	for p := range ledger {
		ledger[p], _ = run.DecisionOf(sim.ProcID(p))
	}
	none := func(sim.ProcID) bool { return false }
	scratch := make([]Violation, 0, 4)
	for _, c := range []Consistency{IC, TC} {
		p := Problem{Rule: UnanimityRule{}, Termination: HT, Consistency: c}
		sc := NewStreamChecker(p, run.Initial())
		for i, e := range run.Schedule {
			sc.Observe(e, run.Configs[i+1])
		}
		last := run.Schedule[len(run.Schedule)-1]
		for name, judge := range map[string]func() []Violation{
			"AppendRule":        func() []Violation { return p.AppendRule(scratch[:0], 0, sim.Abort, final.Inputs, false) },
			"AppendConsistency": func() []Violation { return p.AppendConsistency(scratch[:0], 7, final, ledger) },
			"AppendTermination": func() []Violation { return p.AppendTermination(scratch[:0], final, ledger, none) },
			"Observe":           func() []Violation { sc.Observe(last, final); return nil },
		} {
			var found []Violation
			if allocs := testing.AllocsPerRun(100, func() { found = judge() }); allocs != 0 || len(found) != 0 {
				t.Errorf("%s %s on a clean input: %.1f allocations, found %v; want 0 and nothing", p.Name(), name, allocs, found)
			}
		}
		if vs := sc.Finish(true); len(vs) != 0 {
			t.Errorf("%s: the clean run reports %v", p.Name(), vs)
		}
	}
}
