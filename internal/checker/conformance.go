package checker

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// Check explores the protocol's configuration space and verifies it against
// the problem over every requested input vector and failure pattern. It is
// the executable counterpart of "Q is a protocol for P": the decision rule
// is enforced at every decision transition, the consistency constraint at
// every accessible configuration, and the termination condition at every
// terminal (quiescent) configuration.
func Check(proto sim.Protocol, problem taxonomy.Problem, opts Options) (*Exploration, error) {
	opts.Problem = &problem
	return Explore(proto, opts)
}

// CheckContext is Check with graceful degradation: on cancellation or budget
// exhaustion the partial Exploration (with Status set and all violations
// found so far) accompanies the error. See ExploreContext.
func CheckContext(ctx context.Context, proto sim.Protocol, problem taxonomy.Problem, opts Options) (*Exploration, error) {
	opts.Problem = &problem
	return ExploreContext(ctx, proto, opts)
}

// decisionEdgeViolations validates the decision rule at the moment a
// decision is made: applying one event turned some processor's ledger entry
// from undecided to decided. A failure "has occurred" for the purposes of
// the rule if any processor is already faulty in the pre-configuration —
// by crashing or by having had a delivery omission-suppressed — (the event
// itself cannot simultaneously fail a processor and decide another).
func decisionEdgeViolations(problem taxonomy.Problem, prev, next *node) []taxonomy.Violation {
	var out []taxonomy.Violation
	failureSeen := prev.cfg.OmissionsUsed() > 0
	for p := 0; !failureSeen && p < prev.cfg.N(); p++ {
		if prev.cfg.Faulty(sim.ProcID(p)) {
			failureSeen = true
		}
	}
	for p := range next.ledger {
		if prev.ledger[p] != sim.NoDecision || next.ledger[p] == sim.NoDecision {
			continue
		}
		d := next.ledger[p]
		if !problem.Rule.Permits(d, prev.inputs, failureSeen) {
			out = append(out, taxonomy.Violation{
				Kind: "rule",
				Detail: fmt.Sprintf("%s decided %s on inputs %v (failureSeen=%v), forbidden by %s",
					sim.ProcID(p), d, prev.inputs, failureSeen, problem.Rule.Name()),
			})
		}
	}
	return out
}

// nodeViolations validates the consistency constraint on one accessible
// configuration, and the termination condition if the configuration is
// terminal.
func nodeViolations(problem taxonomy.Problem, nd *node) []taxonomy.Violation {
	var out []taxonomy.Violation
	switch problem.Consistency {
	case taxonomy.TC:
		// Total consistency constrains every decision ever made,
		// including by processors that subsequently failed — exactly
		// what the ledger records.
		seen := sim.NoDecision
		var seenBy sim.ProcID
		for p, d := range nd.ledger {
			if d == sim.NoDecision {
				continue
			}
			if seen == sim.NoDecision {
				seen, seenBy = d, sim.ProcID(p)
				continue
			}
			if d != seen {
				return append(out, taxonomy.Violation{
					Kind:   "TC",
					Detail: fmt.Sprintf("%s decided %s but %s decided %s", seenBy, seen, sim.ProcID(p), d),
				})
			}
		}
	case taxonomy.IC:
		// Interactive consistency constrains the decisions of
		// processors that are simultaneously nonfaulty. Decisions are
		// irrevocable, so a processor's decision stands even once it
		// is hidden by an amnesic state ("it may even be reminded of
		// its decision by the other processors") — hence the ledger,
		// restricted to currently nonfaulty processors. Without this,
		// IC would be vacuous for ST protocols: deciding and
		// immediately forgetting would never exhibit two simultaneous
		// decision states.
		seen := sim.NoDecision
		var seenBy sim.ProcID
		for p, s := range nd.cfg.States {
			if s.Kind() == sim.Failed {
				continue
			}
			d := nd.ledger[p]
			if d == sim.NoDecision {
				continue
			}
			if seen == sim.NoDecision {
				seen, seenBy = d, sim.ProcID(p)
				continue
			}
			if d != seen {
				return append(out, taxonomy.Violation{
					Kind:   "IC",
					Detail: fmt.Sprintf("%s occupies %s while %s occupies %s", seenBy, seen, sim.ProcID(p), d),
				})
			}
		}
	}

	if !nd.cfg.Quiescent() {
		return out
	}
	// Terminal node: a maximal fair run ends here (the scheduler may
	// inject no further failures), so the termination condition must
	// already hold for every nonfaulty processor. Omission-targeted
	// processors are exempt like crashed ones: a processor some delivery
	// to which was suppressed is receive-omission faulty, and the
	// termination conditions promise progress only to correct processors
	// (taxonomy.CheckTermination applies the same exemption).
	for p, s := range nd.cfg.States {
		pid := sim.ProcID(p)
		if s.Kind() == sim.Failed || nd.cfg.OmissionTarget(pid) {
			continue
		}
		if nd.ledger[p] == sim.NoDecision {
			out = append(out, taxonomy.Violation{
				Kind:   "WT",
				Detail: fmt.Sprintf("terminal configuration with nonfaulty %s undecided (state %s)", pid, s.Key()),
			})
			continue
		}
		if problem.Termination >= taxonomy.ST && !s.Amnesic() && s.Kind() != sim.Halted {
			out = append(out, taxonomy.Violation{
				Kind:   "ST",
				Detail: fmt.Sprintf("terminal configuration with nonfaulty %s not amnesic (state %s)", pid, s.Key()),
			})
		}
		if problem.Termination >= taxonomy.HT && s.Kind() != sim.Halted {
			out = append(out, taxonomy.Violation{
				Kind:   "HT",
				Detail: fmt.Sprintf("terminal configuration with nonfaulty %s not halted (state %s)", pid, s.Key()),
			})
		}
	}
	return out
}
