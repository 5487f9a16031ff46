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
	return CheckContext(context.Background(), proto, problem, opts)
}

// CheckContext is Check with graceful degradation: on cancellation or budget
// exhaustion the partial Exploration (with Status set and all violations
// found so far) accompanies the error. See ExploreContext.
func CheckContext(ctx context.Context, proto sim.Protocol, problem taxonomy.Problem, opts Options) (*Exploration, error) {
	xs, err := CheckAll(ctx, proto, []taxonomy.Problem{problem}, opts)
	if xs == nil {
		return nil, err
	}
	return xs[0], err
}

// CheckAll verifies the protocol against several problems in one walk of
// its configuration space: the space does not depend on what it is judged
// against, so the i-th Exploration returned is field for field what
// CheckContext(ctx, proto, problems[i], opts) returns — its own Violations
// (capped at 100) and FirstTrace; the node count, census, configuration
// records and status of the one shared walk — partial results included.
// StopAtFirstViolation cuts the walk at one problem's first violation, so it
// is accepted with a single problem only.
func CheckAll(ctx context.Context, proto sim.Protocol, problems []taxonomy.Problem, opts Options) ([]*Exploration, error) {
	if len(problems) == 0 {
		return nil, fmt.Errorf("checker: CheckAll of %s needs at least one problem", proto.Name())
	}
	if len(problems) > 1 && opts.StopAtFirstViolation {
		return nil, fmt.Errorf("checker: StopAtFirstViolation cuts the walk of %s for one problem; got %d", proto.Name(), len(problems))
	}
	x, judges, err := explore(ctx, proto, problems, opts)
	if x == nil {
		return nil, err
	}
	out := make([]*Exploration, len(judges))
	for i := range judges {
		xi := *x
		xi.Opts.Problem = &judges[i].problem
		xi.Violations, xi.FirstTrace = judges[i].violations, judges[i].firstTrace
		out[i] = &xi
	}
	return out, err
}

// edgeViolations validates every judge's decision rule at the moment a
// decision is made: applying one event turned some processor's ledger entry
// from undecided to decided. failureSeen is the expansion's reading of
// "a failure has occurred" in the pre-configuration.
func (e *explorer) edgeViolations(prev, next *node, failureSeen bool) []verdict {
	var out []verdict
	for i := range e.judges {
		rule := e.judges[i].problem.Rule
		for p := range next.ledger {
			if prev.ledger[p] != sim.NoDecision || next.ledger[p] == sim.NoDecision {
				continue
			}
			d := next.ledger[p]
			if !rule.Permits(d, prev.inputs, failureSeen) {
				out = append(out, verdict{i, taxonomy.Violation{
					Kind: "rule",
					Detail: fmt.Sprintf("%s decided %s on inputs %v (failureSeen=%v), forbidden by %s",
						sim.ProcID(p), d, prev.inputs, failureSeen, rule.Name()),
				}})
			}
		}
	}
	return out
}

// nodeViolations validates every judge's consistency constraint on one
// accessible configuration, and its termination condition if the
// configuration is terminal.
func (e *explorer) nodeViolations(nd *node) []verdict {
	var out []verdict
	for i := range e.judges {
		out = appendNodeViolations(out, i, e.judges[i].problem, nd)
	}
	return out
}

// appendNodeViolations appends what one judge finds on one configuration.
func appendNodeViolations(out []verdict, judge int, problem taxonomy.Problem, nd *node) []verdict {
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
				return append(out, verdict{judge, taxonomy.Violation{
					Kind:   "TC",
					Detail: fmt.Sprintf("%s decided %s but %s decided %s", seenBy, seen, sim.ProcID(p), d),
				}})
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
				return append(out, verdict{judge, taxonomy.Violation{
					Kind:   "IC",
					Detail: fmt.Sprintf("%s occupies %s while %s occupies %s", seenBy, seen, sim.ProcID(p), d),
				}})
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
	// (taxonomy.StreamChecker applies the same exemption to runs).
	for p, s := range nd.cfg.States {
		pid := sim.ProcID(p)
		if s.Kind() == sim.Failed || nd.cfg.OmissionTarget(pid) {
			continue
		}
		if nd.ledger[p] == sim.NoDecision {
			out = append(out, verdict{judge, taxonomy.Violation{
				Kind:   "WT",
				Detail: fmt.Sprintf("terminal configuration with nonfaulty %s undecided (state %s)", pid, s.Key()),
			}})
			continue
		}
		if problem.Termination >= taxonomy.ST && !s.Amnesic() && s.Kind() != sim.Halted {
			out = append(out, verdict{judge, taxonomy.Violation{
				Kind:   "ST",
				Detail: fmt.Sprintf("terminal configuration with nonfaulty %s not amnesic (state %s)", pid, s.Key()),
			}})
		}
		if problem.Termination >= taxonomy.HT && s.Kind() != sim.Halted {
			out = append(out, verdict{judge, taxonomy.Violation{
				Kind:   "HT",
				Detail: fmt.Sprintf("terminal configuration with nonfaulty %s not halted (state %s)", pid, s.Key()),
			}})
		}
	}
	return out
}
