package runtime

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// conformMaterialized is the replay ConformStream replaced, kept as its
// oracle: every event is a sim.Apply onto a kept sim.Run, and the run is
// judged by Problem.Validate over its history. It shares nothing with the
// streaming replay but sim and the judge, so a step ConformStream takes in
// place, or a divergence it words, that differs shows here. An event that
// sim.Applicable refuses is a "replay" divergence; one it accepts and Apply
// still rejects broke a model contract, a "model" divergence.
func conformMaterialized(res *Result, proto sim.Protocol, problem taxonomy.Problem) (*Conformance, error) {
	run, err := sim.NewRun(proto, res.Inputs)
	if err != nil {
		return nil, err
	}
	conf := &Conformance{}
	for i, e := range res.Schedule {
		if err := run.Extend(sim.Schedule{e}); err != nil {
			v := taxonomy.Violation{Kind: "model", Detail: err.Error()}
			if !sim.Applicable(run.Final(), e) {
				v = taxonomy.Violation{Kind: "replay", Detail: fmt.Sprintf("event %d (%s) does not apply: %v", i, e, err)}
			}
			conf.Divergences = append(conf.Divergences, v)
			break
		}
		conf.Replayed++
	}
	if conf.Replayed < len(res.Schedule) {
		return conf, nil
	}
	if res.Quiescent && !run.Final().Quiescent() {
		conf.Divergences = append(conf.Divergences, taxonomy.Violation{
			Kind:   "quiescence",
			Detail: "live run claimed quiescence but the replayed configuration has enabled events (a message the transport lost?)",
		})
	}
	for p := 0; p < proto.N(); p++ {
		replayed, _ := run.DecisionOf(sim.ProcID(p))
		if live := res.Decisions[p]; live != replayed {
			conf.Divergences = append(conf.Divergences, taxonomy.Violation{
				Kind:   "decision",
				Detail: fmt.Sprintf("%s decided %s live but %s in replay", sim.ProcID(p), live, replayed),
			})
		}
	}
	if res.Err != nil {
		conf.Divergences = append(conf.Divergences, taxonomy.Violation{Kind: "run", Detail: res.Err.Error()})
	}
	complete := res.Quiescent && run.Final().Quiescent() && run.Omissions() == 0
	conf.Divergences = append(conf.Divergences, problem.Validate(run, complete)...)
	return conf, nil
}

// assertSameConformance holds ConformStream to its oracle: same replayed
// count, same divergences in the same order with the same details.
func assertSameConformance(t *testing.T, name string, res *Result, proto sim.Protocol, prob taxonomy.Problem) {
	t.Helper()
	full, errFull := conformMaterialized(res, proto, prob)
	stream, errStream := ConformStream(res, proto, prob)
	if (errFull == nil) != (errStream == nil) {
		t.Fatalf("%s: error mismatch: oracle %v, ConformStream %v", name, errFull, errStream)
	}
	if errFull != nil {
		return
	}
	if full.Replayed != stream.Replayed {
		t.Errorf("%s: Replayed %d (oracle) != %d (stream)", name, full.Replayed, stream.Replayed)
	}
	if !reflect.DeepEqual(full.Divergences, stream.Divergences) {
		t.Errorf("%s: divergences differ:\n oracle %v\n stream %v", name, full.Divergences, stream.Divergences)
	}
}

func TestConformStreamMatchesConform(t *testing.T) {
	treeProto := protocols.Tree{Procs: 3}
	ones3 := []sim.Bit{sim.One, sim.One, sim.One}
	clean := mustRun(t, treeProto, ones3, fastConfig(FaultPlan{Seed: 1}, nil))
	assertSameConformance(t, "clean-tree", clean, treeProto, problem(taxonomy.WT, taxonomy.TC))

	starProto := protocols.Star{Procs: 4}
	lossy := mustRun(t, starProto, []sim.Bit{sim.One, sim.Zero, sim.One, sim.One},
		fastConfig(FaultPlan{Seed: 7, DropRate: 0.3, DupRate: 0.3, MaxDelay: 500 * time.Microsecond}, nil))
	assertSameConformance(t, "lossy-star", lossy, starProto, problem(taxonomy.HT, taxonomy.IC))

	crashed := mustRun(t, treeProto, ones3,
		fastConfig(FaultPlan{Seed: 11, DropRate: 0.15, MaxDelay: 300 * time.Microsecond},
			[]sim.FailureAt{{Proc: 1, AfterStep: 2}}))
	assertSameConformance(t, "crashed-tree", crashed, treeProto, problem(taxonomy.WT, taxonomy.TC))

	// Doctored divergences: the replay and its oracle must report the same
	// verdict on traces that do NOT conform.
	flipped := *clean
	flipped.Decisions = append([]sim.Decision(nil), clean.Decisions...)
	flipped.Decisions[0] = sim.Abort
	assertSameConformance(t, "flipped-decision", &flipped, treeProto, problem(taxonomy.WT, taxonomy.TC))

	errored := *clean
	errored.Quiescent, errored.Err = false, errors.New("runtime: deadline exceeded")
	assertSameConformance(t, "run-error", &errored, treeProto, problem(taxonomy.WT, taxonomy.TC))

	// A step that breaks a model contract is a "model" divergence, not a
	// "replay" one: the event applies, and the protocol's step is what sim
	// refuses.
	assertSameConformance(t, "revoked-decision", clean, revoker{treeProto}, problem(taxonomy.WT, taxonomy.TC))
	if conf, _ := ConformStream(clean, revoker{treeProto}, problem(taxonomy.WT, taxonomy.TC)); len(conf.Divergences) != 1 || conf.Divergences[0].Kind != "model" {
		t.Errorf("revoked-decision: divergences %v, want the one model divergence", conf.Divergences)
	}

	truncated := *clean
	truncated.Schedule = clean.Schedule[:len(clean.Schedule)/2]
	assertSameConformance(t, "truncated-schedule", &truncated, treeProto, problem(taxonomy.WT, taxonomy.TC))

	bogus := *clean
	bogus.Schedule = append(append([]sim.Event(nil), clean.Schedule...),
		sim.Event{Proc: 0, Type: sim.Deliver, Msg: sim.MsgID{From: 2, To: 0, Seq: 99}})
	assertSameConformance(t, "bogus-event", &bogus, treeProto, problem(taxonomy.WT, taxonomy.TC))

	// An inapplicable event mid-schedule stops both replays at the same
	// event with the same text — sim's own, though the in-place replay asks
	// sim.Applicable and formats nothing on the way; its configuration is
	// never consulted past it.
	mid := len(clean.Schedule) / 2
	cut := *clean
	cut.Schedule = append(append(append([]sim.Event(nil), clean.Schedule[:mid]...), bogus.Schedule[len(clean.Schedule)]), clean.Schedule[mid:]...)
	assertSameConformance(t, "inapplicable-mid-schedule", &cut, treeProto, problem(taxonomy.WT, taxonomy.TC))
	if conf, _ := ConformStream(&cut, treeProto, problem(taxonomy.WT, taxonomy.TC)); conf.Replayed != mid || len(conf.Divergences) != 1 {
		t.Errorf("inapplicable-mid-schedule: replayed %d with %v, want %d and the one replay divergence", conf.Replayed, conf.Divergences, mid)
	}

	// Omit events replay in place like any other.
	ackProto := protocols.AckCommit{Procs: 4}
	omitting, err := Run(context.Background(), ackProto, []sim.Bit{sim.One, sim.One, sim.One, sim.One},
		fastConfig(FaultPlan{Seed: 1984, DropRate: 0.05, DupRate: 0.05, OmitRate: 0.3, OmitMaxSeq: 4}, nil))
	if err != nil || omitting.Err != nil {
		t.Fatalf("omission run: %v, %v", err, omitting.Err)
	}
	if omitting.Transport.Omissions == 0 {
		t.Fatal("test bug: the omission trace carries no Omit event")
	}
	assertSameConformance(t, "omission-trace", omitting, ackProto, problem(taxonomy.WT, taxonomy.TC))
}

// revoker wraps a protocol so that a processor revokes its decision at its
// first step after making it: a model-contract break in any run in which a
// decided processor steps again.
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
	return r.step(s, r.Protocol.Receive(p, s.(revokerState).State, m))
}
func (r revoker) SendStep(p sim.ProcID, s sim.State) (sim.State, []sim.Envelope) {
	post, envs := r.Protocol.SendStep(p, s.(revokerState).State)
	return r.step(s, post), envs
}

// step wraps post, flipped once s has decided.
func (revoker) step(s, post sim.State) sim.State {
	_, decided := s.Decided()
	return revokerState{State: post, flipped: decided}
}

// TestAllocsConformStream pins what replaying in place bought: the
// streaming replay of a star(24) trace allocates for the protocol's
// transitions, the effect and the messages, not for a copy of the
// configuration per event (52.7 allocations/event with sim.Apply). The pin
// is 5.5 per event. 4.9 are measured (2 912-2 933 per run over 598 events)
// since the protocols drop a sent message by reslicing their queue and
// build a broadcast's queue in one allocation; before, 6.6 (3 962-3 966).
func TestAllocsConformStream(t *testing.T) {
	proto := protocols.Star{Procs: 24}
	inputs := make([]sim.Bit, proto.N())
	for i := range inputs {
		inputs[i] = sim.One
	}
	res := mustRun(t, proto, inputs, fastConfig(FaultPlan{Seed: 1}, nil))
	prob := problem(taxonomy.HT, taxonomy.IC)
	perRun := testing.AllocsPerRun(5, func() {
		if conf, err := ConformStream(res, proto, prob); err != nil || !conf.OK() {
			t.Fatalf("ConformStream: %v, %v", err, conf)
		}
	})
	if perEvent := perRun / float64(len(res.Schedule)); perEvent > 5.5 {
		t.Errorf("streaming replay allocates %.1f times per event (%.0f per run) over %d events, want ≤ 5.5", perEvent, perRun, len(res.Schedule))
	} else {
		t.Logf("%.1f allocations/event, %.0f per run, over %d events", perEvent, perRun, len(res.Schedule))
	}
}

// TestAllocsLiveRun pins what the runtime itself allocates per recorded
// event of a fault-free in-memory star(24) run, conformance replay excluded
// (TestAllocsConformStream pins that): 3.85 per event over the run's 598
// events, against 5.68 when every local message was framed on its way to
// a mailbox that parsed the triple back out of the frame.
func TestAllocsLiveRun(t *testing.T) {
	proto := protocols.Star{Procs: 24}
	inputs := make([]sim.Bit, proto.N())
	for i := range inputs {
		inputs[i] = sim.One
	}
	events, seed := 0, int64(0)
	perRun := testing.AllocsPerRun(10, func() {
		seed++
		res, err := Run(context.Background(), proto, inputs, fastConfig(FaultPlan{Seed: seed}, nil))
		if err != nil || res.Err != nil || !res.Quiescent {
			t.Fatalf("run %d: %v, %v, quiescent %v", seed, err, res.Err, res.Quiescent)
		}
		events = len(res.Schedule)
	})
	if perEvent := perRun / float64(events); perEvent > 4.3 {
		t.Errorf("a live run allocates %.2f times per event (%.0f per run) over %d events, want ≤ 4.3", perEvent, perRun, events)
	} else {
		t.Logf("%.2f allocations/event, %.0f per run, over %d events", perEvent, perRun, events)
	}
}

// BenchmarkLiveStar24 is one unit of the benchmark's live-clean workload:
// an in-memory star(24) run with no faults, then its streaming conformance
// under HT-IC.
func BenchmarkLiveStar24(b *testing.B) {
	proto := protocols.Star{Procs: 24}
	inputs := make([]sim.Bit, proto.N())
	for i := range inputs {
		inputs[i] = sim.One
	}
	prob := problem(taxonomy.HT, taxonomy.IC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), proto, inputs, fastConfig(FaultPlan{Seed: int64(i)}, nil))
		if err != nil || res.Err != nil || !res.Quiescent {
			b.Fatalf("run %d: %v, %v, quiescent %v", i, err, res.Err, res.Quiescent)
		}
		if conf, err := ConformStream(res, proto, prob); err != nil || !conf.OK() {
			b.Fatalf("run %d: ConformStream: %v, %v", i, err, conf)
		}
	}
}

// TestConformStreamClean is the streaming replay's own happy path: a live
// run conforms via ConformStream, every event replayed.
func TestConformStreamClean(t *testing.T) {
	proto := protocols.AckCommit{Procs: 4}
	inputs := []sim.Bit{sim.One, sim.One, sim.One, sim.One}
	res := mustRun(t, proto, inputs, fastConfig(FaultPlan{Seed: 3}, nil))
	conf, err := ConformStream(res, proto, problem(taxonomy.WT, taxonomy.TC))
	if err != nil {
		t.Fatalf("ConformStream: %v", err)
	}
	if !conf.OK() {
		t.Fatalf("expected clean conformance, got %v", conf.Divergences)
	}
	if conf.Replayed != len(res.Schedule) {
		t.Fatalf("replayed %d of %d events", conf.Replayed, len(res.Schedule))
	}
}
