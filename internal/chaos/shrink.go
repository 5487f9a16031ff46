package chaos

import (
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// verdict is the outcome of replaying a schedule from scratch. Its fields
// are exported so that other engines' tests can read what Evaluate found.
type verdict struct {
	// Applicable reports whether every event of the schedule applied in
	// order. An inapplicable candidate (e.g. a delivery whose message was
	// never sent because the send was dropped) is simply invalid — not a
	// pass, not a violation.
	Applicable bool
	// Complete reports whether the final configuration is quiescent, i.e.
	// whether liveness could be judged.
	Complete bool
	// Violations is what the run violates: the problem's verdicts, plus a
	// synthetic "model" violation when the protocol broke a model
	// contract mid-replay.
	Violations []taxonomy.Violation
}

// Evaluate replays a schedule from the initial configuration on the given
// inputs and judges it against the problem: replayer.judge for one
// schedule.
func Evaluate(proto sim.Protocol, inputs []sim.Bit, sched sim.Schedule, problem taxonomy.Problem) verdict {
	r := replayer{proto: proto, inputs: inputs, problem: problem}
	return r.judge(sched)
}

// replayer judges schedules: each is replayed on a scratch copy of one
// initial configuration, stepped in place by taxonomy.StreamChecker.Replay.
type replayer struct {
	proto   sim.Protocol
	inputs  []sim.Bit
	problem taxonomy.Problem
	initial *sim.Config // built by the first judge, under its recover
	scratch sim.Config
}

// judge replays the schedule and judges it. A schedule with an event that
// does not apply is inapplicable, and one on which the protocol broke a
// model contract is applicable with a "model" violation. Liveness
// (termination) is judged only when the replay ends quiescent. Panics in
// protocol code are recovered and render the schedule inapplicable.
func (r *replayer) judge(sched sim.Schedule) (v verdict) {
	defer func() {
		if recover() != nil {
			v = verdict{}
		}
	}()
	if r.initial == nil {
		r.initial = sim.NewConfig(r.proto, r.inputs)
	}
	c := &r.scratch
	c.CopyFrom(r.initial)
	checker := taxonomy.NewStreamChecker(r.problem, c)
	applied, err := checker.Replay(r.proto, c, sched)
	switch {
	case err != nil:
		return verdict{Applicable: true, Violations: []taxonomy.Violation{{Kind: "model", Detail: err.Error()}}}
	case applied < len(sched):
		return verdict{}
	}
	complete := c.Quiescent()
	return verdict{Applicable: true, Complete: complete, Violations: checker.Finish(complete)}
}

// violates is the predicate the shrinker preserves: the schedule is
// applicable and exhibits a violation of the given kind.
func (r *replayer) violates(sched sim.Schedule, kind string) bool {
	v := r.judge(sched)
	return v.Applicable && hasKind(v.Violations, kind)
}

// hasKind reports whether any violation has the given kind.
func hasKind(vs []taxonomy.Violation, kind string) bool {
	for _, v := range vs {
		if v.Kind == kind {
			return true
		}
	}
	return false
}

// Violates reports whether the schedule is applicable and exhibits a
// violation of the given kind.
func Violates(proto sim.Protocol, inputs []sim.Bit, sched sim.Schedule, problem taxonomy.Problem, kind string) bool {
	r := replayer{proto: proto, inputs: inputs, problem: problem}
	return r.violates(sched, kind)
}

// Shrink delta-debugs a violating schedule to a locally minimal
// counterexample that still exhibits a violation of the given kind. It
// alternates two deterministic passes until neither makes progress:
//
//   - removal: drop windows of events (halving window sizes down to single
//     events, ddmin-style), keeping any candidate that still violates. This
//     covers ordinary events, Fail injections, and Omit suppressions —
//     dropping a Fail or Omit event is exactly dropping the fault.
//
//   - retiming: move each Fail and Omit event to the earliest position at
//     which the violation survives, canonicalizing when the fault strikes.
//
// The result is 1-minimal with respect to single-event removal: deleting
// any one event either makes the schedule inapplicable or makes the
// violation disappear. Shrink returns the minimal schedule, its violations,
// and the number of candidates evaluated. If the input schedule does not
// violate (which a correct caller never passes), it is returned unchanged.
func Shrink(proto sim.Protocol, inputs []sim.Bit, sched sim.Schedule, problem taxonomy.Problem, kind string) (sim.Schedule, []taxonomy.Violation, int) {
	tried := 0
	r := replayer{proto: proto, inputs: inputs, problem: problem}
	violates := func(cand sim.Schedule) bool {
		tried++
		return r.violates(cand, kind)
	}

	cur := append(sim.Schedule(nil), sched...)
	if !violates(cur) {
		return cur, r.judge(cur).Violations, tried
	}

	removePass := func() bool {
		shrunkAny := false
		for window := (len(cur) + 1) / 2; window >= 1; window /= 2 {
			for {
				removed := false
				for start := 0; start+window <= len(cur); {
					cand := make(sim.Schedule, 0, len(cur)-window)
					cand = append(cand, cur[:start]...)
					cand = append(cand, cur[start+window:]...)
					if violates(cand) {
						cur = cand
						removed = true
						shrunkAny = true
					} else {
						start++
					}
				}
				if !removed {
					break
				}
			}
		}
		return shrunkAny
	}

	// faultPosSum is retiming's termination metric: the sum of the
	// positions of all Fail and Omit events.
	faultPosSum := func(s sim.Schedule) int {
		sum := 0
		for i, e := range s {
			if e.Type == sim.Fail || e.Type == sim.Omit {
				sum += i
			}
		}
		return sum
	}

	retimePass := func() bool {
		moved := false
		for i := 0; i < len(cur); i++ {
			if cur[i].Type != sim.Fail && cur[i].Type != sim.Omit {
				continue
			}
			for j := 0; j < i; j++ {
				cand := append(sim.Schedule(nil), cur...)
				e := cand[i]
				copy(cand[j+1:i+1], cand[j:i])
				cand[j] = e
				// Moving one fault earlier shifts any other fault in
				// [j, i) one position later, so with several faults a
				// move can leave the metric unchanged (two adjacent
				// faults swapping forever). Accept only strict
				// decreases; that is what makes the pass terminate.
				if faultPosSum(cand) < faultPosSum(cur) && violates(cand) {
					cur = cand
					moved = true
					break
				}
			}
		}
		return moved
	}

	// Each removal strictly shortens the schedule and each accepted retime
	// strictly decreases the sum of Fail/Omit positions, so the loop
	// terminates.
	for {
		removed := removePass()
		moved := retimePass()
		if !removed && !moved {
			break
		}
	}

	return cur, r.judge(cur).Violations, tried
}
