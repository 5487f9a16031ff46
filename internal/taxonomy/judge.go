package taxonomy

import (
	"fmt"

	"repro/internal/sim"
)

// The judge: the decision rule, the consistency constraints and the
// termination conditions, each implemented once. The explorer calls it per
// decision edge and per admitted node; StreamChecker folds it over a run for
// the sweeper, the shrinker, trace replay and live conformance. So
// "violates" means, and reads, the same in every engine. Each function
// appends to a caller-owned slice and allocates nothing when it finds
// nothing. A ledger holds each processor's first decision (sim.NoDecision if
// none): decisions are irrevocable, so one counts from the configuration it
// is made in onward, even once amnesia or failure hides it.

// AppendRule appends the decision-rule violation, if any, of processor
// proc's first decision d on the input vector inputs; failureSeen reports
// whether a crash or an omission preceded it.
//
//ccvet:pure
func (p Problem) AppendRule(out []Violation, proc sim.ProcID, d sim.Decision, inputs []sim.Bit, failureSeen bool) []Violation {
	if p.Rule.Permits(d, inputs, failureSeen) {
		return out
	}
	return append(out, Violation{Kind: "rule", Detail: fmt.Sprintf("%s decided %s on inputs %v (failureSeen=%v), forbidden by %s",
		proc, d, inputs, failureSeen, p.Rule.Name())})
}

// AppendConsistency appends the consistency violation, if any, of
// configuration c with ledger ledger. TC constrains every decision ever
// made, by processors that later failed too: the whole ledger. IC
// constrains the processors nonfaulty in c — still through the ledger, or
// deciding and at once forgetting would never show two simultaneous
// decision states ("it may even be reminded of its decision by the other
// processors"). at numbers c in IC's wording: its step in a run, its
// admission index in an exploration.
//
//ccvet:pure
func (p Problem) AppendConsistency(out []Violation, at int, c *sim.Config, ledger []sim.Decision) []Violation {
	seen, seenBy := sim.NoDecision, sim.ProcID(0)
	for proc, d := range ledger {
		switch {
		case d == sim.NoDecision || p.Consistency == IC && c.KindAt(sim.ProcID(proc)) == sim.Failed:
		case seen == sim.NoDecision:
			seen, seenBy = d, sim.ProcID(proc)
		case d != seen && p.Consistency == IC:
			return append(out, Violation{Kind: "IC", Detail: fmt.Sprintf("configuration %d: %s decided %s while %s decided %s", at, seenBy, seen, sim.ProcID(proc), d)})
		case d != seen:
			return append(out, Violation{Kind: "TC", Detail: fmt.Sprintf("%s decided %s but %s decided %s", seenBy, seen, sim.ProcID(proc), d)})
		}
	}
	return out
}

// AppendTermination appends the termination violations of c, the final
// configuration of a maximal run, in processor order. Crashed processors are
// exempt, and so is every processor omitted reports: one that a delivery
// was suppressed to is receive-omission faulty though its state never shows
// it, and termination is promised to correct processors only.
//
//ccvet:pure
func (p Problem) AppendTermination(out []Violation, c *sim.Config, ledger []sim.Decision, omitted func(sim.ProcID) bool) []Violation {
	for proc, s := range c.States {
		pid := sim.ProcID(proc)
		if s.Kind() == sim.Failed || omitted(pid) {
			continue
		}
		if ledger[proc] == sim.NoDecision {
			out = append(out, Violation{Kind: "WT", Detail: fmt.Sprintf("nonfaulty %s never decided", pid)})
			continue
		}
		// A halted processor has completed its role, which subsumes
		// amnesia (HT is strictly stronger than ST).
		if p.Termination >= ST && !s.Amnesic() && s.Kind() != sim.Halted {
			out = append(out, Violation{Kind: "ST", Detail: fmt.Sprintf("nonfaulty %s never became amnesic (final state %s)", pid, s.Key())})
		}
		if p.Termination >= HT && s.Kind() != sim.Halted {
			out = append(out, Violation{Kind: "HT", Detail: fmt.Sprintf("nonfaulty %s never halted (final state %s)", pid, s.Key())})
		}
	}
	return out
}
