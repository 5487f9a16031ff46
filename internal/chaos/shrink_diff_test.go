package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// refJudge is the shrinker's judge without a checkpoint: every schedule is
// replayed from a configuration built afresh, under a fresh checker. An
// inapplicable schedule, or one that panics, has no violations.
func refJudge(proto sim.Protocol, inputs []sim.Bit, sched sim.Schedule, problem taxonomy.Problem) (vs []taxonomy.Violation) {
	defer func() {
		if recover() != nil {
			vs = nil
		}
	}()
	c := sim.NewConfig(proto, inputs)
	checker := taxonomy.NewStreamChecker(problem, c)
	applied, err := checker.Replay(proto, c, sched)
	switch {
	case err != nil:
		return []taxonomy.Violation{{Kind: "model", Detail: err.Error()}}
	case applied < len(sched):
		return nil
	}
	return checker.Finish(c.Quiescent())
}

// refShrink is Shrink without a checkpoint, the oracle it is held to: every
// candidate is built as a slice and replayed from the initial
// configuration, and retime computes its metric over the whole candidate.
// failRetimes counts the accepted moves of Fail events, so a test can show
// it has some.
func refShrink(proto sim.Protocol, inputs []sim.Bit, sched sim.Schedule, problem taxonomy.Problem, kind string) (out sim.Schedule, vs []taxonomy.Violation, tried, failRetimes int) {
	violates := func(cand sim.Schedule) bool {
		tried++
		return hasKind(refJudge(proto, inputs, cand, problem), kind)
	}
	cur := append(sim.Schedule(nil), sched...)
	if !violates(cur) {
		return cur, refJudge(proto, inputs, cur, problem), tried, 0
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
						removed, shrunkAny = true, true
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
				if faultPosSum(cand) < faultPosSum(cur) && violates(cand) {
					if e.Type == sim.Fail {
						failRetimes++
					}
					cur = cand
					moved = true
					break
				}
			}
		}
		return moved
	}
	for {
		removed := removePass()
		moved := retimePass()
		if !removed && !moved {
			break
		}
	}
	return cur, refJudge(proto, inputs, cur, problem), tried, failRetimes
}

// revoker wraps a protocol so that a processor that has decided revokes its
// decision when it receives a failure notice: a model-contract break partway
// through any run in which a decided processor hears of a crash.
type revoker struct{ sim.Protocol }

type revokerState struct {
	sim.State
	flipped bool
}

func (s revokerState) Decided() (sim.Decision, bool) {
	d, ok := s.State.Decided()
	if ok && s.flipped {
		d = sim.Abort + sim.Commit - d
	}
	return d, ok
}

func (s revokerState) Key() string {
	if s.flipped {
		return s.State.Key() + "!"
	}
	return s.State.Key()
}

func (r revoker) Name() string { return "revoker-" + r.Protocol.Name() }
func (r revoker) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	return revokerState{State: r.Protocol.Init(p, input, n)}
}
func (r revoker) Receive(p sim.ProcID, s sim.State, m sim.Message) sim.State {
	rs := s.(revokerState)
	post := revokerState{State: r.Protocol.Receive(p, rs.State, m), flipped: rs.flipped}
	if _, ok := rs.Decided(); ok && m.Notice {
		post.flipped = !post.flipped
	}
	return post
}
func (r revoker) SendStep(p sim.ProcID, s sim.State) (sim.State, []sim.Envelope) {
	rs := s.(revokerState)
	post, envs := r.Protocol.SendStep(p, rs.State)
	return revokerState{State: post, flipped: rs.flipped}, envs
}

// tripwire wraps a protocol so that a processor panics when it receives a
// message on a channel whose earlier messages it has received none of. A
// run that delivers each channel's first message first never trips it; a
// shrink candidate that drops such a delivery and keeps a later one may.
type tripwire struct {
	sim.Protocol
	tripped *atomic.Int64
}

type tripState struct {
	sim.State
	heard uint64 // bit q: a message from q was received
}

func (s tripState) Key() string { return fmt.Sprintf("%s/%x", s.State.Key(), s.heard) }

func (t tripwire) Name() string { return "tripwire-" + t.Protocol.Name() }
func (t tripwire) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	return tripState{State: t.Protocol.Init(p, input, n)}
}
func (t tripwire) Receive(p sim.ProcID, s sim.State, m sim.Message) sim.State {
	ts := s.(tripState)
	bit := uint64(1) << uint(m.ID.From)
	if !m.Notice && m.ID.Seq > 1 && ts.heard&bit == 0 {
		t.tripped.Add(1)
		panic("tripwire: a channel's first message was skipped")
	}
	return tripState{State: t.Protocol.Receive(p, ts.State, m), heard: ts.heard | bit}
}
func (t tripwire) SendStep(p sim.ProcID, s sim.State) (sim.State, []sim.Envelope) {
	ts := s.(tripState)
	post, envs := t.Protocol.SendStep(p, ts.State)
	return tripState{State: post, heard: ts.heard}, envs
}

// shrinkCase is one violating schedule to shrink.
type shrinkCase struct {
	inputs []sim.Bit
	sched  sim.Schedule
	kind   string
}

// sweptCases is the violating runs of an unminimized sweep.
func sweptCases(t *testing.T, proto sim.Protocol, problem taxonomy.Problem, opts Options) []shrinkCase {
	t.Helper()
	rep, err := Run(context.Background(), proto, problem, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out []shrinkCase
	for _, f := range rep.Failures {
		if f.Outcome == OutcomeViolated {
			out = append(out, shrinkCase{f.Inputs, f.Schedule, f.Violations[0].Kind})
		}
	}
	return out
}

// revokedCases walks seeded crash plans of the revoker and keeps the walks
// a revoked decision ends. The walk records the event it refused last, so
// each case is the walk and then the walk again, up to that event, as a
// tail the replay never reaches: the contract breaks partway through.
func revokedCases(t *testing.T, proto sim.Protocol, runs int) []shrinkCase {
	t.Helper()
	var out []shrinkCase
	for _, pl := range PlanRuns(611, runs, proto.N(), proto.N()-1, nil) {
		rng := rand.New(rand.NewSource(pl.Seed))
		var last sim.Event
		c := sim.NewConfig(proto, pl.Inputs)
		sched, _, err := sim.RandomWalk(proto, c, sim.RunnerOptions{
			MaxSteps: 2000, Failures: pl.Failures,
			Choose: func(_ *sim.Config, enabled []sim.Event) int {
				i := rng.Intn(len(enabled))
				last = enabled[i]
				return i
			},
		}, nil, func(sim.Event, *sim.Config) {})
		if !errors.Is(err, sim.ErrRevokedDecision) {
			continue
		}
		if sched[len(sched)-1] != last {
			t.Fatalf("plan %v: the walk ends with %v, not with the event it refused, %v", pl, sched[len(sched)-1], last)
		}
		full := append(append(sim.Schedule(nil), sched...), sched[:len(sched)-1]...)
		out = append(out, shrinkCase{pl.Inputs, full, "model"})
	}
	return out
}

// TestShrinkMatchesFromScratch holds the checkpointed Shrink to refShrink,
// byte for byte in the shrunk schedule, its violations and the candidates
// tried, on cells that reach every path of the checkpoint: omission
// removals and retimes, crash retimes, a contract broken partway through
// the schedule (the checkpoint is lost when it reaches the break, and
// candidates replay from the initial configuration) and candidates that
// panic mid-replay.
func TestShrinkMatchesFromScratch(t *testing.T) {
	wt, st := problem(taxonomy.WT, taxonomy.TC), problem(taxonomy.ST, taxonomy.IC)
	var tripped atomic.Int64
	trip := tripwire{Protocol: protocols.AckCommit{Procs: 4}, tripped: &tripped}
	revoking := revoker{protocols.AckCommit{Procs: 4}}
	omitCrash := Options{Runs: 400, Seed: 611, MaxFailures: 2, Adversary: AdversaryDelay, OmissionBudget: 2}
	cells := []struct {
		name  string
		proto sim.Protocol
		prob  taxonomy.Problem
		cases []shrinkCase
	}{
		{"tree7-adaptive-omit2m1", protocols.Tree{Procs: 7}, wt, sweptCases(t, protocols.Tree{Procs: 7}, wt,
			Options{Runs: 60, Seed: 611, MaxFailures: 0, Adversary: AdversaryAdaptive, OmissionBudget: 2, MobileOmissions: 1})},
		{"chain-st3-crashes", protocols.Chain{Procs: 3, ST: true}, st, sweptCases(t, protocols.Chain{Procs: 3, ST: true}, st,
			Options{Runs: 3000, Seed: 611, MaxFailures: 2, Inputs: [][]sim.Bit{{sim.One, sim.One, sim.One}}})},
		{"chain4-crashes", protocols.Chain{Procs: 4}, st, sweptCases(t, protocols.Chain{Procs: 4}, st,
			Options{Runs: 300, Seed: 611, MaxFailures: 2})},
		{"revoker-ackcommit4", revoking, wt, revokedCases(t, revoking, 400)},
		{"tripwire-ackcommit4-omit-crashes", trip, wt, sweptCases(t, trip, wt, omitCrash)},
	}
	const perCell = 40
	for _, c := range cells {
		if len(c.cases) < perCell {
			t.Fatalf("%s: %d violating schedules, want at least %d", c.name, len(c.cases), perCell)
		}
		failRetimes, tried, shortened := 0, 0, 0
		tripped.Store(0)
		for i, sc := range c.cases[:perCell] {
			got, gotVs, gotTried := Shrink(c.proto, sc.inputs, sc.sched, c.prob, sc.kind)
			want, wantVs, wantTried, fr := refShrink(c.proto, sc.inputs, sc.sched, c.prob, sc.kind)
			if g, w := compactSchedule(got), compactSchedule(want); g != w {
				t.Fatalf("%s case %d: shrunk to\n\t%s\nfrom scratch to\n\t%s", c.name, i, g, w)
			}
			if g, w := fmt.Sprint(gotVs), fmt.Sprint(wantVs); g != w {
				t.Fatalf("%s case %d: violations %s, from scratch %s", c.name, i, g, w)
			}
			if gotTried != wantTried {
				t.Fatalf("%s case %d: tried %d candidates, from scratch %d", c.name, i, gotTried, wantTried)
			}
			failRetimes += fr
			tried += gotTried
			if len(got) < len(sc.sched) {
				shortened++
			}
		}
		t.Logf("%s: %d candidates, %d Fail retimes, %d tripped", c.name, tried, failRetimes, tripped.Load())
		switch c.name {
		case "chain4-crashes":
			if failRetimes == 0 {
				t.Errorf("%s: no shrink retimed a Fail event", c.name)
			}
		case "revoker-ackcommit4":
			// Dropping the tail moves the checkpoint past the break.
			if shortened < perCell {
				t.Errorf("%s: %d of %d shrinks dropped the tail past the break", c.name, shortened, perCell)
			}
		case "tripwire-ackcommit4-omit-crashes":
			if tripped.Load() == 0 {
				t.Errorf("%s: no candidate panicked", c.name)
			}
		}
	}
}

// TestModelFailureTraceReplays sweeps the revoker, whose contract breaks
// when a decided processor hears of a crash, and replays each model failure
// from its trace: the recorded schedule must end with the event that broke
// the contract, so the replay reaches the same "model" violation, shrunk or
// not. A schedule that stopped short of that event replayed to a clean run,
// and Shrink, finding no violation to keep, reported none.
func TestModelFailureTraceReplays(t *testing.T) {
	proto := revoker{protocols.AckCommit{Procs: 4}}
	prob := problem(taxonomy.WT, taxonomy.TC)
	const wantFailures = 17
	for _, minimize := range []bool{false, true} {
		opts := Options{Runs: 100, Seed: 611, MaxFailures: 3, Minimize: minimize}
		rep, err := Run(context.Background(), proto, prob, opts)
		if err != nil {
			t.Fatal(err)
		}
		model := 0
		for _, f := range rep.Failures {
			if len(f.Violations) > 0 && f.Violations[0].Kind != "model" {
				continue
			}
			model++
			if len(f.Violations) == 0 {
				t.Errorf("minimize=%v run %d: a model failure reported no violation", minimize, f.RunIndex)
				continue
			}
			data, err := BuildTrace(rep, f, opts.maxSteps()).Encode()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := DecodeTrace(data)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Replay(tr, proto, prob)
			if err != nil {
				t.Fatalf("minimize=%v run %d: replay: %v", minimize, f.RunIndex, err)
			}
			if !got.Reproduced || !hasKind(got.Violations, "model") {
				t.Errorf("minimize=%v run %d: the trace of %v replays to %v", minimize, f.RunIndex, f.Violations, got.Violations)
			}
		}
		if model != wantFailures {
			t.Errorf("minimize=%v: %d model failures, want %d", minimize, model, wantFailures)
		}
	}
}
