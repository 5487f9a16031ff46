package runtime

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

func problem(term taxonomy.Termination, cons taxonomy.Consistency) taxonomy.Problem {
	return taxonomy.Problem{Rule: taxonomy.UnanimityRule{}, Consistency: cons, Termination: term}
}

// fastConfig keeps test runs quick: tight heartbeats, a short detection
// timeout, and a deadline generous enough for loaded CI machines.
func fastConfig(faults FaultPlan, failures []sim.FailureAt) Config {
	return Config{
		Faults:        faults,
		Failures:      failures,
		Heartbeat:     500 * time.Microsecond,
		DetectTimeout: 8 * time.Millisecond,
		Deadline:      30 * time.Second,
	}
}

func mustRun(t *testing.T, proto sim.Protocol, inputs []sim.Bit, cfg Config) *Result {
	t.Helper()
	res, err := Run(context.Background(), proto, inputs, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("run failed: %v (schedule %d events)", res.Err, len(res.Schedule))
	}
	if !res.Quiescent {
		t.Fatalf("run did not quiesce (%d events)", len(res.Schedule))
	}
	return res
}

func mustConform(t *testing.T, res *Result, proto sim.Protocol, prob taxonomy.Problem) *Conformance {
	t.Helper()
	conf, err := ConformStream(res, proto, prob)
	if err != nil {
		t.Fatalf("ConformStream: %v", err)
	}
	if !conf.OK() {
		for _, d := range conf.Divergences {
			t.Errorf("divergence: %s", d)
		}
		t.Fatalf("live run diverged from the model (%d/%d events replayed)", conf.Replayed, len(res.Schedule))
	}
	return conf
}

func TestLiveFailureFreeTreeConforms(t *testing.T) {
	proto := protocols.Tree{Procs: 3}
	inputs := []sim.Bit{sim.One, sim.One, sim.One}
	res := mustRun(t, proto, inputs, fastConfig(FaultPlan{Seed: 1}, nil))
	mustConform(t, res, proto, problem(taxonomy.WT, taxonomy.TC))
	for p, d := range res.Decisions {
		if d != sim.Commit {
			t.Errorf("p%d decided %s, want commit on all-ones", p, d)
		}
	}
	if len(res.Crashes) != 0 || res.FalseSuspicions != 0 {
		t.Errorf("failure-free run reports crashes %v, false suspicions %d", res.Crashes, res.FalseSuspicions)
	}
}

func TestLiveLossyTransportStillConforms(t *testing.T) {
	proto := protocols.Star{Procs: 4}
	inputs := []sim.Bit{sim.One, sim.Zero, sim.One, sim.One}
	faults := FaultPlan{Seed: 7, DropRate: 0.3, DupRate: 0.3, MaxDelay: 500 * time.Microsecond}
	res := mustRun(t, proto, inputs, fastConfig(faults, nil))
	mustConform(t, res, proto, problem(taxonomy.HT, taxonomy.IC))
	for p, d := range res.Decisions {
		if d != sim.Abort {
			t.Errorf("p%d decided %s, want abort (input vector has a zero)", p, d)
		}
	}
}

func TestLiveCrashRecoversViaTerminationProtocol(t *testing.T) {
	// The tree protocol is WT-TC: a mid-protocol crash must be detected
	// and survivors must still reach a (unanimous) decision through the
	// Appendix termination protocol — Theorem 7 observed live.
	proto := protocols.Tree{Procs: 3}
	inputs := []sim.Bit{sim.One, sim.One, sim.One}
	faults := FaultPlan{Seed: 11, DropRate: 0.15, MaxDelay: 300 * time.Microsecond}
	res := mustRun(t, proto, inputs, fastConfig(faults, []sim.FailureAt{{Proc: 1, AfterStep: 2}}))
	mustConform(t, res, proto, problem(taxonomy.WT, taxonomy.TC))
	if len(res.Crashes) != 1 || res.Crashes[0].Proc != 1 {
		t.Fatalf("crashes = %v, want exactly p1", res.Crashes)
	}
	if res.Crashes[0].Detection <= 0 {
		t.Errorf("detection latency not measured: %v", res.Crashes[0].Detection)
	}
	var decided sim.Decision
	for p, d := range res.Decisions {
		if p == 1 {
			continue
		}
		if d == sim.NoDecision {
			t.Fatalf("survivor p%d never decided", p)
		}
		if decided == sim.NoDecision {
			decided = d
		} else if d != decided {
			t.Fatalf("survivors disagree: %s vs %s", decided, d)
		}
	}
	if res.Recovery <= 0 {
		t.Errorf("recovery latency not measured: %v", res.Recovery)
	}
}

func TestLiveDisabledDedupFailsConformance(t *testing.T) {
	// The teeth check: with receiver-side dedup off and every ack lost,
	// duplicated deliveries are recorded in the trace, and the replay must
	// reject the second delivery of some triple (the model's buffer no
	// longer holds it). If this test fails, the conformance check proves
	// nothing.
	proto := protocols.Tree{Procs: 3}
	inputs := []sim.Bit{sim.One, sim.One, sim.One}
	faults := FaultPlan{Seed: 3, DupRate: 1.0, DisableDedup: true}
	cfg := fastConfig(faults, nil)
	// With every ack lost the scheduler retransmits forever, so the
	// run can never quiesce; a short deadline cuts it off once the
	// duplicated deliveries are in the trace.
	cfg.Deadline = 1500 * time.Millisecond
	res, err := Run(context.Background(), proto, inputs, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	conf, err := ConformStream(res, proto, problem(taxonomy.WT, taxonomy.TC))
	if err != nil {
		t.Fatalf("ConformStream: %v", err)
	}
	if conf.OK() {
		t.Fatalf("broken transport (dedup disabled, every ack lost) passed conformance — the check has no teeth")
	}
	found := false
	for _, d := range conf.Divergences {
		if d.Kind == "replay" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a replay divergence, got %v", conf.Divergences)
	}
}

func TestConformCatchesLostMessage(t *testing.T) {
	// Fabricate the other transport lie: a message recorded as sent but
	// never delivered. Truncating the final delivery from an honest trace
	// leaves the replayed configuration non-quiescent, so the live claim
	// of quiescence must fail.
	proto := protocols.Tree{Procs: 3}
	inputs := []sim.Bit{sim.One, sim.One, sim.One}
	res := mustRun(t, proto, inputs, fastConfig(FaultPlan{Seed: 5}, nil))
	cut := len(res.Schedule)
	for i := len(res.Schedule) - 1; i >= 0; i-- {
		if res.Schedule[i].Type == sim.Deliver {
			cut = i
			break
		}
	}
	if cut == len(res.Schedule) {
		t.Fatal("trace has no delivery to drop")
	}
	doctored := *res
	doctored.Schedule = append(sim.Schedule{}, res.Schedule[:cut]...)
	for _, e := range res.Schedule[cut+1:] {
		doctored.Schedule = append(doctored.Schedule, e)
	}
	conf, err := ConformStream(&doctored, proto, problem(taxonomy.WT, taxonomy.TC))
	if err != nil {
		t.Fatalf("ConformStream: %v", err)
	}
	if conf.OK() {
		t.Fatal("a trace with a swallowed delivery passed conformance")
	}
}

func TestLiveOmissionSoakConforms(t *testing.T) {
	// A miniature of the cclive omission soak: seeded plans drive live runs
	// under an omission injector (suppress-after-accept, recorded as Omit
	// events) stacked on a lossy transport. Every trace must replay clean —
	// ConformStream and its materializing oracle agreeing — and the
	// injector must actually fire: each run's Omit events must match its
	// transport counter, and the sweep as a whole must suppress at least
	// one delivery.
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	proto := protocols.AckCommit{Procs: 4}
	prob := problem(taxonomy.WT, taxonomy.TC)
	plans := chaos.PlanRuns(1984, 6, proto.N(), 1, nil)
	totalOmitted := int64(0)
	for i, pl := range plans {
		faults := FaultPlan{
			Seed: pl.Seed, DropRate: 0.05, DupRate: 0.05,
			MaxDelay: 200 * time.Microsecond, OmitRate: 0.15, OmitMaxSeq: 4,
		}
		res, err := Run(context.Background(), proto, pl.Inputs, fastConfig(faults, pl.Failures))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Err != nil {
			t.Fatalf("run %d failed: %v", i, res.Err)
		}
		omitEvents := 0
		for _, e := range res.Schedule {
			if e.Type == sim.Omit {
				omitEvents++
			}
		}
		if int64(omitEvents) != res.Transport.Omissions {
			t.Fatalf("run %d: %d Omit events in trace, transport counted %d",
				i, omitEvents, res.Transport.Omissions)
		}
		totalOmitted += res.Transport.Omissions
		mustConform(t, res, proto, prob)
		assertSameConformance(t, fmt.Sprintf("run %d", i), res, proto, prob)
	}
	if totalOmitted == 0 {
		t.Fatal("omission injector never fired across the soak")
	}
}

func TestLiveSoakSeededPlans(t *testing.T) {
	// A miniature of the cclive soak: chaos.PlanRuns derives seeded
	// inputs and crash schedules, every run executes live under a lossy
	// transport, and every trace must replay clean.
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	cases := []struct {
		proto sim.Protocol
		prob  taxonomy.Problem
	}{
		{protocols.Tree{Procs: 3}, problem(taxonomy.WT, taxonomy.TC)},
		{protocols.Star{Procs: 3}, problem(taxonomy.HT, taxonomy.IC)},
		{protocols.Chain{Procs: 3}, problem(taxonomy.WT, taxonomy.IC)},
	}
	for _, tc := range cases {
		plans := chaos.PlanRuns(1984, 6, tc.proto.N(), 1, nil)
		for i, pl := range plans {
			faults := FaultPlan{Seed: pl.Seed, DropRate: 0.1, MaxDelay: 200 * time.Microsecond}
			res := mustRun(t, tc.proto, pl.Inputs, fastConfig(faults, pl.Failures))
			conf := mustConform(t, res, tc.proto, tc.prob)
			if conf.Replayed != len(res.Schedule) {
				t.Fatalf("%s run %d: replayed %d of %d events", tc.proto.Name(), i, conf.Replayed, len(res.Schedule))
			}
		}
	}
}

// contractBreaker is star(3) with every sending step's envelopes rewritten
// by breach, so the run's first sending step breaks the model's send
// contract.
type contractBreaker struct {
	protocols.Star
	breach func(p sim.ProcID) []sim.Envelope
}

func (b contractBreaker) SendStep(p sim.ProcID, s sim.State) (sim.State, []sim.Envelope) {
	s2, _ := b.Star.SendStep(p, s)
	return s2, b.breach(p)
}

// TestCollectorEnforcesSendContract: a live run of a protocol that sends to
// itself, sends two messages, or sends out of range is cut at its first
// sending step, long before its deadline, with the error sim.Apply gives
// that step.
func TestCollectorEnforcesSendContract(t *testing.T) {
	const n = 3
	cases := []struct {
		name   string
		breach func(p sim.ProcID) []sim.Envelope
	}{
		{"self-send", func(p sim.ProcID) []sim.Envelope { return []sim.Envelope{{To: p}} }},
		{"multi-send", func(p sim.ProcID) []sim.Envelope {
			q := (p + 1) % n
			return []sim.Envelope{{To: q}, {To: q}}
		}},
		{"out-of-range", func(sim.ProcID) []sim.Envelope { return []sim.Envelope{{To: n}} }},
	}
	inputs := []sim.Bit{sim.One, sim.One, sim.One}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			proto := contractBreaker{Star: protocols.Star{Procs: n}, breach: tc.breach}
			// The first sending step the collector sees is some processor's
			// first: nothing is ever delivered.
			root := sim.NewConfig(proto, inputs)
			want := make(map[string]bool)
			for p := 0; p < n; p++ {
				if root.States[p].Kind() != sim.Sending {
					continue
				}
				if _, _, err := sim.Apply(proto, root, sim.Event{Proc: sim.ProcID(p), Type: sim.SendStepEvent}); err != nil {
					want[err.Error()] = true
				}
			}
			if len(want) == 0 {
				t.Fatal("no processor starts in a sending state")
			}
			cfg := fastConfig(FaultPlan{}, nil)
			res, err := Run(context.Background(), proto, inputs, cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Err == nil || !want[res.Err.Error()] {
				t.Fatalf("Result.Err = %v, want one of %v", res.Err, want)
			}
			if res.Quiescent || len(res.Schedule) != 0 {
				t.Errorf("quiescent %v after %d events; the refused step must end the run with none", res.Quiescent, len(res.Schedule))
			}
			if res.Elapsed > cfg.Deadline/10 {
				t.Errorf("the run took %s of its %s deadline", res.Elapsed, cfg.Deadline)
			}
		})
	}
}
