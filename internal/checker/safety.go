package checker

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// UnsafeState describes one accessible state violating the safe-state
// definition of Section 4.
type UnsafeState struct {
	Key    string
	Reason string
}

// SafetyReport is the result of the Theorem 2 analysis over an exploration:
// which accessible states are safe, the bias partition, and whether
// Corollary 6 holds on every accessible configuration.
type SafetyReport struct {
	// TotalStates is the number of accessible operational states analyzed.
	TotalStates int
	// Unsafe lists the operational states that are not safe.
	Unsafe []UnsafeState
	// Committable maps each analyzed state key to its bias: true iff the
	// state implies all inputs are 1 and its concurrency set contains no
	// abort state.
	Committable map[string]bool
	// Corollary6 lists violations of Corollary 6 — a processor has decided
	// but some nonfaulty processor occupies a state that does not share its
	// bias — one per (state, position, decision), in order of first
	// admission, at most 20.
	Corollary6 []taxonomy.Violation
	// Partial is set when the walk admitted only some accessible
	// configurations: it was cut (Status.Partial) or reduced (Opts.Reduction
	// is not ReduceNone), so concurrency and input sets are subsets of the
	// full ones. A partial report proves no absence. Every unsafe state it
	// lists is real, and so is every Corollary 6 violation after a commit;
	// one after an abort may not be, since bias is lost as the sets grow.
	Partial bool
}

// AllSafe reports whether every analyzed state is safe.
func (r *SafetyReport) AllSafe() bool { return len(r.Unsafe) == 0 }

// Safety runs the Theorem 2 analysis on an exploration. On a partial or
// reduced one it analyzes what was visited and says so in the report's
// Partial field.
//
// A state s is safe iff (1) its concurrency set C(s) does not contain
// conflicting decision states, and (2) if C(s) contains a commit state then
// s implies that the input value of every processor is 1. "Implies" is
// evaluated over accessibility: the property must hold in every accessible
// configuration containing s, i.e. under every input vector from which s is
// reachable.
func (x *Exploration) Safety() *SafetyReport {
	partial := x.Status.Partial() || x.Opts.Reduction != ReduceNone
	r := &SafetyReport{Committable: make(map[string]bool, len(x.States)), Partial: partial}

	keys := make([]string, 0, len(x.States))
	for k := range x.States {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	concDecisions := func(si *StateInfo) (commit, abort bool) {
		for ck := range si.Conc { //ccvet:ignore detrange commutative boolean accumulation; order is unobservable
			switch x.States[ck].Decision() {
			case sim.Commit:
				commit = true
			case sim.Abort:
				abort = true
			}
		}
		return commit, abort
	}

	for _, k := range keys {
		si := x.States[k]
		if si.Sample.Kind() == sim.Failed {
			continue
		}
		r.TotalStates++
		commitConc, abortConc := concDecisions(si)
		selfDecision := si.Decision()
		commitSeen := commitConc || selfDecision == sim.Commit
		abortSeen := abortConc || selfDecision == sim.Abort

		if commitSeen && abortSeen {
			r.Unsafe = append(r.Unsafe, UnsafeState{
				Key:    k,
				Reason: "concurrency set contains both a commit and an abort state",
			})
		}
		if commitSeen && !si.ImpliesAllOnes() {
			r.Unsafe = append(r.Unsafe, UnsafeState{
				Key: k,
				Reason: fmt.Sprintf("commit in concurrency set but state is accessible under %d input vector(s) containing a 0",
					countMixed(si)),
			})
		}

		// Bias: committable iff the state implies all inputs are 1 and
		// no abort state is concurrent with it.
		r.Committable[k] = si.ImpliesAllOnes() && !abortConc && selfDecision != sim.Abort
	}

	r.Corollary6 = x.checkCorollary6(r.Committable)
	return r
}

func countMixed(si *StateInfo) int {
	n := 0
	for vec := range si.Inputs { //ccvet:ignore detrange counting; order is unobservable
		for _, c := range vec {
			if c == '0' {
				n++
				break
			}
		}
	}
	return n
}

// checkCorollary6 verifies Corollary 6 on the census's occupancies: if any
// processor has decided (per the ledger — decisions by since-failed
// processors count under total consistency), then every nonfaulty processor
// occupies a state of the same bias. Each violating (state, position,
// decision) triple is reported once, in order of first admission.
func (x *Exploration) checkCorollary6(committable map[string]bool) []taxonomy.Violation {
	var out []taxonomy.Violation
	for _, o := range x.occupancies {
		key := x.stateKeys[o.state]
		if x.States[key].Sample.Kind() == sim.Failed {
			continue
		}
		if committable[key] != (o.decided == sim.Commit) {
			out = append(out, taxonomy.Violation{
				Kind: "corollary6",
				Detail: fmt.Sprintf("after a %s decision, nonfaulty %s occupies %s with bias committable=%v",
					o.decided, o.pos, key, committable[key]),
			})
			if len(out) >= 20 {
				break
			}
		}
	}
	return out
}
