package taxonomy

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// StreamChecker validates a run against a problem one configuration at a
// time, retaining O(N) state instead of the run's configuration history: a
// fold of the judge (judge.go) over the run, which needs only the current
// configuration, the first-decision ledger, and whether a failure has
// happened. The chaos sweeper feeds it the configuration sim.RandomWalk
// steps in place; every recorded schedule — a chaos trace, a live run's
// trace, a shrinker candidate — is judged by Judge, which steps one
// configuration in place; Problem.Validate feeds it a materialized
// sim.Run.
//
// The observer never keeps a configuration beyond the latest, so a caller
// may hand it the same *sim.Config, mutated, at every step. Decisions are
// irrevocable in the model — sim.Apply rejects a revision — which is what
// makes the first-decision ledger a faithful substitute for scanning a
// history.
type StreamChecker struct {
	p      Problem
	inputs []sim.Bit

	idx       int  // index of the last observed configuration
	anyFail   bool // a Fail or Omit event preceded the current configuration
	undecided int  // processors with no recorded first decision

	omitted []bool         // omitted[p]: a delivery to p was omission-suppressed
	ledger  []sim.Decision // first decision each processor ever held

	rule []Violation // rule[p]: p's decision-rule violation; Kind "" if none
	ic   []Violation // the first interactive-consistency violation

	final *sim.Config
}

// NewStreamChecker starts a streaming validation of a run whose initial
// configuration is c (the result of sim.NewConfig for the run's inputs).
func NewStreamChecker(p Problem, c *sim.Config) *StreamChecker {
	n := c.N()
	sc := &StreamChecker{
		p:         p,
		inputs:    c.Inputs,
		idx:       -1,
		undecided: n,
		omitted:   make([]bool, n),
		ledger:    make([]sim.Decision, n),
		rule:      make([]Violation, n),
	}
	sc.observe(c)
	return sc
}

// CopyFrom makes sc a copy of src that goes on from c, reusing sc's slices:
// c is the caller's copy of the configuration src last observed. Observing
// the rest of a run on the copy then judges what src would have judged, so
// a caller that replays many schedules sharing a prefix folds the prefix
// once.
func (sc *StreamChecker) CopyFrom(src *StreamChecker, c *sim.Config) {
	omitted, ledger, rule, ic := sc.omitted, sc.ledger, sc.rule, sc.ic
	*sc = *src
	sc.omitted = append(omitted[:0], src.omitted...)
	sc.ledger = append(ledger[:0], src.ledger...)
	sc.rule = append(rule[:0], src.rule...)
	sc.ic = append(ic[:0], src.ic...)
	sc.final = c
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

// Replay steps c — the configuration last observed, owned by the caller —
// through sched in place (sim.Config.ApplyInPlace), observing every step. It
// stops at the first event that does not apply and returns how many did.
// err is nil when that event is simply not applicable to c (asked with
// sim.Applicable before stepping, so no error is formatted), and the model
// error when the protocol broke a contract on it (self-send, multi-send,
// revoked decision). Either way c is left at the configuration the applied
// prefix reaches.
func (sc *StreamChecker) Replay(proto sim.Protocol, c *sim.Config, sched sim.Schedule) (applied int, err error) {
	for i, e := range sched {
		if !sim.Applicable(c, e) {
			return i, nil
		}
		if err := c.ApplyInPlace(proto, e); err != nil {
			return i, err
		}
		sc.Observe(e, c)
	}
	return len(sched), nil
}

// Claims are what a live run says of itself, which its replay must bear
// out: each processor's first decision (sim.NoDecision if none), whether
// the run ended quiescent, and its error ("" if none).
type Claims struct {
	Decisions []sim.Decision
	Quiescent bool
	Err       string
}

// Judgment is Judge's verdict on a recorded schedule: how many of its
// events applied, whether termination was judged, and the violations.
type Judgment struct {
	Replayed   int
	Complete   bool
	Violations []Violation
}

// Judge is the one judge of a recorded schedule, a chaos sweep's or a live
// run's: StreamChecker.Judge from the initial configuration on inputs,
// where an event that does not apply is a "replay" violation in sim's
// words (a transport that delivered a message twice records a second
// Deliver the model rejects). The error reports inputs not of the
// protocol's size.
func Judge(proto sim.Protocol, p Problem, inputs []sim.Bit, sched sim.Schedule, claims *Claims) (Judgment, error) {
	run, err := sim.NewRun(proto, inputs)
	if err != nil {
		return Judgment{}, err
	}
	c := run.Final() // the run is dropped: nobody else holds its configuration
	j := NewStreamChecker(p, c).Judge(proto, c, claims, sched)
	if j.Replayed < len(sched) && j.Violations == nil {
		e := sched[j.Replayed] // c is left as it was: sim says why e does not apply
		j.Violations = []Violation{{Kind: "replay",
			Detail: fmt.Sprintf("event %d (%s) does not apply: %v", j.Replayed, e, c.ApplyInPlace(proto, e))}}
	}
	return j, nil
}

// Judge goes on from c, the configuration sc last observed, stepping it in
// place through the segments of sched (Replay), and judges the run. A step
// that breaks a model contract (self-send, multi-send, revoked decision)
// ends it with a "model" violation, an event that does not apply with none
// (nothing is formatted). Then, given claims: "quiescence" if the run
// claimed quiescence the replay denies (a message the transport lost stays
// buffered), "decision" per processor whose live decision differs from the
// replay's, and "run" for the run's error. Then Finish, judging
// termination if the replay ended quiescent and, with claims, the run
// claimed quiescence and omitted nothing: an omission can strand
// processors it did not target, and whether a protocol terminates under
// omissions is the checker's and the sweep's question.
func (sc *StreamChecker) Judge(proto sim.Protocol, c *sim.Config, claims *Claims, sched ...sim.Schedule) (j Judgment) {
	for _, seg := range sched {
		n, err := sc.Replay(proto, c, seg)
		j.Replayed += n
		if err != nil {
			j.Violations = []Violation{{Kind: "model", Detail: err.Error()}}
		}
		if n < len(seg) {
			return j
		}
	}
	j.Complete = c.Quiescent()
	if claims != nil {
		if claims.Quiescent && !j.Complete {
			j.Violations = append(j.Violations, Violation{Kind: "quiescence",
				Detail: "live run claimed quiescence but the replayed configuration has enabled events (a message the transport lost?)"})
		}
		for p, replayed := range sc.ledger {
			if live := claims.Decisions[p]; live != replayed {
				j.Violations = append(j.Violations, Violation{Kind: "decision",
					Detail: fmt.Sprintf("%s decided %s live but %s in replay", sim.ProcID(p), live, replayed)})
			}
		}
		if claims.Err != "" {
			j.Violations = append(j.Violations, Violation{Kind: "run", Detail: claims.Err})
		}
		j.Complete = j.Complete && claims.Quiescent && !slices.Contains(sc.omitted, true)
	}
	j.Violations = append(j.Violations, sc.Finish(j.Complete)...)
	return j
}

// observe folds one configuration into the ledger — judging the decision
// rule at each first decision — and, for IC problems, judges consistency
// until its first violation. IC is judged only where it can first fail: at
// the initial configuration and wherever the ledger gains a decision.
// Between two such points the ledger is fixed and the Failed processors
// only grow (failure is permanent), so the nonfaulty decided processors IC
// compares only shrink, and a configuration that passed leaves its
// successors nothing new to fail on.
func (sc *StreamChecker) observe(c *sim.Config) {
	sc.idx++
	sc.final = c
	grew := sc.idx == 0
	for proc := 0; sc.undecided > 0 && proc < len(sc.ledger); proc++ {
		if sc.ledger[proc] != sim.NoDecision {
			continue
		}
		d, ok := c.DecidedAt(sim.ProcID(proc))
		if !ok {
			continue
		}
		sc.ledger[proc] = d
		sc.undecided--
		grew = true
		var found [1]Violation
		if v := sc.p.AppendRule(found[:0], sim.ProcID(proc), d, sc.inputs, sc.anyFail); len(v) > 0 {
			sc.rule[proc] = v[0]
		}
	}
	if grew && sc.p.Consistency == IC && len(sc.ic) == 0 {
		sc.ic = sc.p.AppendConsistency(sc.ic, sc.idx, c, sc.ledger)
	}
}

// Finish returns the violations of the observed run: the decision rule per
// processor, then consistency — IC's first violation, or TC over the whole
// ledger — then, only when complete is true (the run is maximal),
// termination on the final configuration.
func (sc *StreamChecker) Finish(complete bool) []Violation {
	var out []Violation
	for _, v := range sc.rule {
		if v.Kind != "" {
			out = append(out, v)
		}
	}
	if sc.p.Consistency == IC {
		out = append(out, sc.ic...)
	} else {
		out = sc.p.AppendConsistency(out, sc.idx, sc.final, sc.ledger)
	}
	if complete {
		out = sc.p.AppendTermination(out, sc.final, sc.ledger, sc.omittedProc)
	}
	return out
}

// omittedProc is AppendTermination's exemption: the Omit events observed.
func (sc *StreamChecker) omittedProc(p sim.ProcID) bool { return sc.omitted[p] }
