package taxonomy

import (
	"reflect"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
)

// perConfigViolations is StreamChecker.Finish's oracle for IC problems: it
// judges consistency at every configuration of the run, where the checker
// judges it only where the ledger gains a decision. The rule, the ledger
// and termination are folded the same way, so the two can differ only in
// the IC violation, or in where they find it.
func perConfigViolations(p Problem, run *sim.Run, complete bool) []Violation {
	n := run.Proto.N()
	ledger := make([]sim.Decision, n)
	omitted := make([]bool, n)
	rule := make([]Violation, n)
	var ic []Violation
	failureSeen := false
	for i, c := range run.Configs {
		if i > 0 {
			switch e := run.Schedule[i-1]; e.Type {
			case sim.Fail:
				failureSeen = true
			case sim.Omit:
				failureSeen = true
				omitted[e.Proc] = true
			}
		}
		for proc := range ledger {
			if ledger[proc] != sim.NoDecision {
				continue
			}
			if d, ok := c.States[proc].Decided(); ok {
				ledger[proc] = d
				if v := p.AppendRule(nil, sim.ProcID(proc), d, run.Initial().Inputs, failureSeen); len(v) > 0 {
					rule[proc] = v[0]
				}
			}
		}
		if len(ic) == 0 {
			ic = p.AppendConsistency(nil, i, c, ledger)
		}
	}
	var out []Violation
	for _, v := range rule {
		if v.Kind != "" {
			out = append(out, v)
		}
	}
	out = append(out, ic...)
	if complete {
		out = p.AppendTermination(out, run.Final(), ledger, func(q sim.ProcID) bool { return omitted[q] })
	}
	return out
}

// TestICJudgedOnLedgerGrowth holds the streaming checker, which judges IC
// only at the initial configuration and where a decision enters the ledger,
// to the per-configuration oracle above, byte for byte (kind, detail and
// the configuration index the detail names), on random runs with crashes of
// every library protocol under HT-IC, ST-IC and WT-IC. The amnesic chain on
// unanimous inputs is the cell that violates IC (Theorem 13), rarely, so it
// gets many more runs.
func TestICJudgedOnLedgerGrowth(t *testing.T) {
	type cell struct {
		proto     sim.Protocol
		runs      int
		unanimous bool
	}
	cells := []cell{{protocols.Chain{Procs: 3, ST: true}, 500, true}}
	for _, proto := range []sim.Protocol{
		protocols.Tree{Procs: 7},
		protocols.Tree{Procs: 7, ST: true},
		protocols.Star{Procs: 4},
		protocols.Chain{Procs: 4},
		protocols.Chain{Procs: 3, ST: true},
		protocols.Perverse{},
		protocols.Perverse{ForgetfulP0: true},
		protocols.Termination{Procs: 4},
		protocols.AckCommit{Procs: 4},
		protocols.HaltingCommit{Procs: 4},
		protocols.Broadcast{Procs: 4},
		protocols.FullExchange{Procs: 4},
		protocols.TwoPhaseCommit{Procs: 4},
		protocols.ThresholdCommit{Procs: 4, K: 2},
	} {
		cells = append(cells, cell{proto, 60, false})
	}
	icViolations := 0
	for _, c := range cells {
		n := int64(c.proto.N())
		for seed := int64(0); seed < int64(c.runs); seed++ {
			inputs := make([]sim.Bit, n)
			for i := range inputs {
				inputs[i] = sim.Bit((seed >> uint(i%5)) & 1)
				if c.unanimous {
					inputs[i] = sim.One
				}
			}
			var failures []sim.FailureAt
			for k := int64(0); k < 1+seed%(n-1); k++ {
				failures = append(failures, sim.FailureAt{Proc: sim.ProcID((seed*5 + k) % n), AfterStep: int((seed*3 + 7*k) % 23)})
			}
			run, err := sim.RandomRun(c.proto, inputs, sim.RunnerOptions{Seed: seed, Failures: failures})
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.proto.Name(), seed, err)
			}
			for _, term := range []Termination{WT, ST, HT} {
				p := Problem{Rule: UnanimityRule{}, Termination: term, Consistency: IC}
				for _, complete := range []bool{false, true} {
					want := perConfigViolations(p, run, complete)
					got := streamViolations(p, run, complete)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s seed %d complete=%v:\n stream     %v\n per-config %v", c.proto.Name(), p.Name(), seed, complete, got, want)
					}
					if term == WT && complete && hasIC(got) {
						icViolations++
					}
				}
			}
		}
	}
	if icViolations == 0 {
		t.Error("no run violates IC: the comparison never saw a violation")
	}
	t.Logf("%d runs violate IC", icViolations)
}

func hasIC(vs []Violation) bool {
	for _, v := range vs {
		if v.Kind == "IC" {
			return true
		}
	}
	return false
}
