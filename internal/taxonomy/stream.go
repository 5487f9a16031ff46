package taxonomy

import (
	"fmt"

	"repro/internal/sim"
)

// StreamChecker validates a run against a problem one configuration at a
// time, retaining O(N) state instead of the run's configuration history:
// the checks only ever need the current configuration, a per-processor
// first-decision ledger, and a has-a-failure-happened flag. It is the one
// implementation of the decision rule, IC, TC and the termination
// conditions: the chaos sweeper and the live conformance replay feed it a
// configuration they step in place, and Problem.Validate feeds it a
// materialized sim.Run.
//
// The observer never keeps a configuration beyond the latest (Final), so a
// caller may hand it the same *sim.Config, mutated, at every step.
// Decisions are irrevocable in the model — sim.Apply rejects a revision —
// which is what makes the first-decision ledger a faithful substitute for
// scanning a history.
type StreamChecker struct {
	p      Problem
	inputs []sim.Bit
	n      int

	idx       int  // index of the last observed configuration
	anyFail   bool // a Fail or Omit event preceded the current configuration
	undecided int  // processors with no recorded first decision

	omitted []bool // omitted[p]: a delivery to p was omission-suppressed

	first    []sim.Decision // first decision each processor ever held
	firstHas []bool

	ruleViol []*Violation // per-processor decision-rule violation, at most one
	icViol   *Violation   // first interactive-consistency violation

	final *sim.Config
}

// NewStreamChecker starts a streaming validation of a run whose initial
// configuration is c (the result of sim.NewConfig for the run's inputs).
func NewStreamChecker(p Problem, c *sim.Config) *StreamChecker {
	n := c.N()
	sc := &StreamChecker{
		p:         p,
		inputs:    c.Inputs,
		n:         n,
		idx:       -1,
		undecided: n,
		omitted:   make([]bool, n),
		first:     make([]sim.Decision, n),
		firstHas:  make([]bool, n),
		ruleViol:  make([]*Violation, n),
	}
	sc.observe(c)
	return sc
}

// Observe records the next configuration of the run, produced by applying
// event e to the previously observed configuration. Configurations must
// arrive in schedule order.
func (sc *StreamChecker) Observe(e sim.Event, next *sim.Config) {
	switch e.Type {
	case sim.Fail:
		sc.anyFail = true
	case sim.Omit:
		sc.anyFail = true
		sc.omitted[e.Proc] = true
	}
	sc.observe(next)
}

// observe folds one configuration into the ledgers: first decisions (with
// the decision-rule check at the moment of decision) and, for IC problems,
// the per-configuration consistency scan.
func (sc *StreamChecker) observe(c *sim.Config) {
	sc.idx++
	sc.final = c
	if sc.undecided > 0 {
		for proc := 0; proc < sc.n; proc++ {
			if sc.firstHas[proc] {
				continue
			}
			d, ok := c.States[proc].Decided()
			if !ok {
				continue
			}
			sc.first[proc] = d
			sc.firstHas[proc] = true
			sc.undecided--
			if !sc.p.Rule.Permits(d, sc.inputs, sc.anyFail) {
				sc.ruleViol[proc] = &Violation{
					Kind: "rule",
					Detail: fmt.Sprintf("%s decided %s on inputs %v (failureSeen=%v), forbidden by %s",
						sim.ProcID(proc), d, sc.inputs, sc.anyFail, sc.p.Rule.Name()),
				}
			}
		}
	}
	if sc.p.Consistency == IC && sc.icViol == nil {
		sc.checkIC(c)
	}
}

// checkIC is interactive consistency at one configuration: no two
// simultaneously nonfaulty processors may stand by different decisions. A
// decision counts from the configuration it is made in onward, even after
// the processor hides it in an amnesic state ("it may even be reminded of
// its decision by the other processors"), which is the first-decision
// ledger.
func (sc *StreamChecker) checkIC(c *sim.Config) {
	seen := sim.NoDecision
	var seenBy sim.ProcID
	for proc, s := range c.States {
		if s.Kind() == sim.Failed {
			continue
		}
		if !sc.firstHas[proc] {
			continue
		}
		d := sc.first[proc]
		if seen == sim.NoDecision {
			seen, seenBy = d, sim.ProcID(proc)
			continue
		}
		if d != seen {
			sc.icViol = &Violation{
				Kind: "IC",
				Detail: fmt.Sprintf("configuration %d: %s decided %s while %s decided %s",
					sc.idx, seenBy, seen, sim.ProcID(proc), d),
			}
			return
		}
	}
}

// Decision returns the first decision processor p made at any point in the
// observed prefix, decisions later hidden by amnesia or failure included —
// sim.Run.DecisionOf without the history.
func (sc *StreamChecker) Decision(p sim.ProcID) (sim.Decision, bool) {
	if !sc.firstHas[p] {
		return sim.NoDecision, false
	}
	return sc.first[p], true
}

// Final returns the most recently observed configuration.
func (sc *StreamChecker) Final() *sim.Config { return sc.final }

// Finish returns the violations of the observed run: the decision rule per
// processor, then consistency — for TC, no two processors ever decide
// differently, counting decisions by processors that later failed or became
// amnesic — then, only when complete is true, termination.
func (sc *StreamChecker) Finish(complete bool) []Violation {
	var out []Violation
	for _, v := range sc.ruleViol {
		if v != nil {
			out = append(out, *v)
		}
	}
	switch sc.p.Consistency {
	case IC:
		if sc.icViol != nil {
			out = append(out, *sc.icViol)
		}
	case TC:
		seen := sim.NoDecision
		var seenBy sim.ProcID
		for proc := 0; proc < sc.n; proc++ {
			if !sc.firstHas[proc] {
				continue
			}
			d := sc.first[proc]
			if seen == sim.NoDecision {
				seen, seenBy = d, sim.ProcID(proc)
				continue
			}
			if d != seen {
				out = append(out, Violation{
					Kind:   "TC",
					Detail: fmt.Sprintf("%s decided %s but %s decided %s", seenBy, seen, sim.ProcID(proc), d),
				})
				break
			}
		}
	}
	if complete {
		out = append(out, sc.checkTermination()...)
	}
	return out
}

// checkTermination checks the problem's termination condition on a complete
// (maximal) run; it reads only the final configuration and the ledgers.
// Crashed processors are exempt, and so are receive-omission-faulty ones (a
// processor some delivery to which was suppressed): the termination
// conditions promise progress only to correct processors, and a processor
// starved of a message it needed is faulty in the omission model even
// though its state never shows it.
func (sc *StreamChecker) checkTermination() []Violation {
	var out []Violation
	t := sc.p.Termination
	for proc := 0; proc < sc.n; proc++ {
		pid := sim.ProcID(proc)
		s := sc.final.States[pid]
		if s.Kind() == sim.Failed || sc.omitted[proc] {
			continue
		}
		if !sc.firstHas[proc] {
			out = append(out, Violation{
				Kind:   "WT",
				Detail: fmt.Sprintf("nonfaulty %s never decided", pid),
			})
			continue
		}
		if t >= ST && !s.Amnesic() && s.Kind() != sim.Halted {
			// Strong termination requires eventually forgetting the
			// decision. A halted processor has completed its role,
			// which subsumes amnesia (HT is strictly stronger).
			out = append(out, Violation{
				Kind:   "ST",
				Detail: fmt.Sprintf("nonfaulty %s never became amnesic (final state %s)", pid, s.Key()),
			})
		}
		if t >= HT && s.Kind() != sim.Halted {
			out = append(out, Violation{
				Kind:   "HT",
				Detail: fmt.Sprintf("nonfaulty %s never halted (final state %s)", pid, s.Key()),
			})
		}
	}
	return out
}
