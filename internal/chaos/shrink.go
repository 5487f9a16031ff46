package chaos

import (
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// Evaluate judges a schedule from the initial configuration on the given
// inputs: taxonomy.Judge without live claims, the zero Judgment for inputs
// not of the protocol's size.
func Evaluate(proto sim.Protocol, inputs []sim.Bit, sched sim.Schedule, problem taxonomy.Problem) taxonomy.Judgment {
	j, _ := taxonomy.Judge(proto, problem, inputs, sched, nil)
	return j
}

// replayer judges schedules, each replayed by taxonomy.StreamChecker.Replay
// on a scratch configuration stepped in place. It keeps a checkpoint: the
// configuration and checker that the first at events of a base schedule
// reach. A candidate that shares that prefix replays only the rest, from a
// scratch copy of the checkpoint, and the checkpoint moves forward along
// the base schedule as the candidates' shared prefix grows (DESIGN.md §6).
type replayer struct {
	proto   sim.Protocol
	inputs  []sim.Bit
	problem taxonomy.Problem
	// initial and start are the initial configuration and its checker,
	// built by the first replay, under its recover.
	initial *sim.Config
	start   *taxonomy.StreamChecker
	// ck and ckSC are the checkpoint once ready: copies of initial and
	// start stepped through the first at events of the base schedule.
	// While not ready the checkpoint is initial and start themselves, at
	// 0. lost means that a step of the base schedule did not apply, or
	// panicked, as the checkpoint moved over it: the checkpoint then stays
	// at the initial configuration until rewind, and candidates replay
	// their whole prefix.
	ck    sim.Config
	ckSC  taxonomy.StreamChecker
	at    int
	ready bool
	lost  bool
	// scratch and sc are a candidate's copy of the checkpoint; segs, its segments.
	scratch sim.Config
	sc      taxonomy.StreamChecker
	segs    []sim.Schedule
}

// rewind moves the checkpoint back to the initial configuration, for a
// base schedule that need not extend the last one.
func (r *replayer) rewind() { r.at, r.ready, r.lost = 0, false, false }

// lose moves the checkpoint back to the initial configuration until
// rewind. The step that failed may have left ck half written, so nothing
// of it is kept.
func (r *replayer) lose() { r.at, r.ready, r.lost = 0, false, true }

// seek moves the checkpoint forward to base[:k], which must extend the
// prefix it holds.
func (r *replayer) seek(base sim.Schedule, k int) {
	if r.initial == nil {
		r.initial = sim.NewConfig(r.proto, r.inputs)
		r.start = taxonomy.NewStreamChecker(r.problem, r.initial)
	}
	if r.lost || r.at == k {
		return
	}
	if !r.ready {
		r.ck.CopyFrom(r.initial)
		r.ckSC.CopyFrom(r.start, &r.ck)
		r.ready = true
	}
	defer func() {
		if recover() != nil {
			r.lose()
		}
	}()
	applied, err := r.ckSC.Replay(r.proto, &r.ck, base[r.at:k])
	r.at += applied
	if err != nil || r.at < k {
		r.lose()
	}
}

// judgeAfter judges the schedule base[:k] followed by the segments of rest
// as taxonomy.Judge does without claims, and returns its violations. It
// moves the checkpoint to base[:k] and judges the rest from a scratch
// copy of it (StreamChecker.Judge); while the checkpoint is lost, the copy
// is of the initial configuration and base[:k] is replayed first. A
// schedule with an event that does not apply, or on which protocol code
// panics, is inapplicable: it has no violations, and nothing is formatted
// for it.
func (r *replayer) judgeAfter(base sim.Schedule, k int, rest ...sim.Schedule) (vs []taxonomy.Violation) {
	defer func() {
		if recover() != nil {
			vs = nil
		}
	}()
	r.seek(base, k)
	from, fromSC := r.initial, r.start
	if r.ready {
		from, fromSC = &r.ck, &r.ckSC
	}
	c, checker := &r.scratch, &r.sc
	c.CopyFrom(from)
	checker.CopyFrom(fromSC, c)
	r.segs = append(append(r.segs[:0], base[r.at:k]), rest...)
	return checker.Judge(r.proto, c, nil, r.segs...).Violations
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
	r := replayer{proto: proto, inputs: inputs, problem: problem}
	cur := append(sim.Schedule(nil), sched...)
	tried, vs := 1, r.judgeAfter(nil, 0, cur)
	if !hasKind(vs, kind) {
		return cur, vs, tried
	}
	// violates tests the candidate cur[:k] followed by rest, and keeps the
	// violations of one that violates: it becomes cur. Each pass below
	// rewinds the checkpoint at the start of a sweep and lets k only grow
	// through it, never changing cur[:k], so the checkpoint follows k; a
	// candidate becomes cur only once it is accepted.
	violates := func(k int, rest ...sim.Schedule) bool {
		tried++
		got := r.judgeAfter(cur, k, rest...)
		if !hasKind(got, kind) {
			return false
		}
		vs = got
		return true
	}

	removePass := func() bool {
		shrunkAny := false
		for window := (len(cur) + 1) / 2; window >= 1; window /= 2 {
			for {
				removed := false
				r.rewind()
				for start := 0; start+window <= len(cur); {
					if violates(start, cur[start+window:]) {
						cur = append(cur[:start], cur[start+window:]...)
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

	isFault := func(e sim.Event) bool { return e.Type == sim.Fail || e.Type == sim.Omit }

	// Retiming's termination metric is the sum of the positions of all
	// Fail and Omit events. Moving the fault at i to j < i lowers it by
	// i − j, but shifts every other fault in [j, i) one position later, so
	// with several faults a move can leave the metric unchanged (two
	// adjacent faults swapping forever). Only strict decreases are tried,
	// which is what makes the pass terminate: the moves for which some
	// event in [j, i) is not a fault, j up to the last such event.
	retimePass := func() bool {
		moved := false
		for i := 0; i < len(cur); i++ {
			if !isFault(cur[i]) {
				continue
			}
			last := i - 1
			for last >= 0 && isFault(cur[last]) {
				last--
			}
			r.rewind()
			for j := 0; j <= last; j++ {
				if violates(j, cur[i:i+1], cur[j:i], cur[i+1:]) {
					e := cur[i]
					copy(cur[j+1:i+1], cur[j:i])
					cur[j] = e
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

	return cur, vs, tried
}
