package chaos

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

func problem(t taxonomy.Termination, c taxonomy.Consistency) taxonomy.Problem {
	return taxonomy.Problem{Rule: taxonomy.UnanimityRule{}, Termination: t, Consistency: c}
}

// sweep is the reference configuration the tests share: the deliberately
// broken amnesic chain (Theorem 13: no blocking protocol solves ST-IC)
// against ST-IC, enough seeded runs to hit the violation reliably.
func sweep(t *testing.T, opts Options) *Report {
	t.Helper()
	rep, err := Run(context.Background(), protocols.Chain{Procs: 3, ST: true},
		problem(taxonomy.ST, taxonomy.IC), opts)
	if err != nil {
		t.Fatalf("chaos.Run: %v", err)
	}
	return rep
}

func chainSTOptions() Options {
	return Options{Runs: 300, Seed: 7, MaxFailures: 2, Minimize: true}
}

func firstViolated(t *testing.T, rep *Report) *Failure {
	t.Helper()
	for _, f := range rep.Failures {
		if f.Outcome == OutcomeViolated {
			return f
		}
	}
	t.Fatalf("no violated run in %d failures (passed %d, violated %d, panicked %d)",
		len(rep.Failures), rep.Passed, rep.Violated, rep.Panicked)
	return nil
}

func TestChaosCatchesChainST(t *testing.T) {
	rep := sweep(t, chainSTOptions())
	if rep.Status != StatusComplete {
		t.Fatalf("status = %v, want complete", rep.Status)
	}
	f := firstViolated(t, rep)
	if !hasKind(f.Violations, "IC") {
		t.Fatalf("expected an IC violation, got %v", f.Violations)
	}
	if len(f.Schedule) == 0 || len(f.Schedule) > f.OriginalSteps {
		t.Fatalf("shrunk schedule has %d events (original %d)", len(f.Schedule), f.OriginalSteps)
	}
	t.Logf("run %d: %d violated runs, first shrunk %d → %d events (%d candidates)",
		f.RunIndex, rep.Violated, f.OriginalSteps, len(f.Schedule), f.ShrinkCandidates)
}

// TestShrunkScheduleIsOneMinimal checks the shrinker's contract: the shrunk
// schedule still violates, and removing any single event makes the candidate
// either inapplicable or non-violating.
func TestShrunkScheduleIsOneMinimal(t *testing.T) {
	rep := sweep(t, chainSTOptions())
	proto := protocols.Chain{Procs: 3, ST: true}
	prob := problem(taxonomy.ST, taxonomy.IC)
	f := firstViolated(t, rep)
	kind := f.Violations[0].Kind

	if !Violates(proto, f.Inputs, f.Schedule, prob, kind) {
		t.Fatalf("shrunk schedule no longer violates %s", kind)
	}
	for i := range f.Schedule {
		cand := make(sim.Schedule, 0, len(f.Schedule)-1)
		cand = append(cand, f.Schedule[:i]...)
		cand = append(cand, f.Schedule[i+1:]...)
		if Violates(proto, f.Inputs, cand, prob, kind) {
			t.Fatalf("schedule is not 1-minimal: removing event %d (%v) still violates %s",
				i, f.Schedule[i], kind)
		}
	}
}

// TestSweepDeterminism checks that the sweep is a pure function of its seed
// and options: worker-pool size must not perturb outcomes or trace bytes.
func TestSweepDeterminism(t *testing.T) {
	opts := chainSTOptions()
	opts.Parallel = 1
	a := sweep(t, opts)
	opts.Parallel = 8
	b := sweep(t, opts)

	if a.Violated != b.Violated || a.Passed != b.Passed || len(a.Failures) != len(b.Failures) {
		t.Fatalf("parallel=1 and parallel=8 sweeps disagree: %d/%d violated, %d/%d failures",
			a.Violated, b.Violated, len(a.Failures), len(b.Failures))
	}
	if a.InjectionsPlanned != b.InjectionsPlanned || a.InjectionsFired != b.InjectionsFired {
		t.Fatalf("injection accounting differs across parallelism")
	}
	for i := range a.Failures {
		ta := BuildTrace(a, a.Failures[i], 10_000)
		tb := BuildTrace(b, b.Failures[i], 10_000)
		ea, err := ta.Encode()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := tb.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ea, eb) {
			t.Fatalf("trace %d differs between parallel=1 and parallel=8:\n%s\n---\n%s", i, ea, eb)
		}
	}
}

func TestTraceRoundTripReplay(t *testing.T) {
	rep := sweep(t, chainSTOptions())
	proto := protocols.Chain{Procs: 3, ST: true}
	prob := problem(taxonomy.ST, taxonomy.IC)
	f := firstViolated(t, rep)

	tr := BuildTrace(rep, f, 10_000)
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(decoded, proto, prob)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !res.Reproduced {
		t.Fatalf("replay did not reproduce the recorded violations: recorded %v, got %v",
			decoded.Violations, res.Violations)
	}
}

func TestReplayRejectsMismatchedProtocol(t *testing.T) {
	rep := sweep(t, chainSTOptions())
	f := firstViolated(t, rep)
	tr := BuildTrace(rep, f, 10_000)
	if _, err := Replay(tr, protocols.Tree{Procs: 3}, problem(taxonomy.ST, taxonomy.IC)); err == nil {
		t.Fatal("replay against the wrong protocol should fail")
	}
	if _, err := Replay(tr, protocols.Chain{Procs: 3, ST: true}, problem(taxonomy.WT, taxonomy.TC)); err == nil {
		t.Fatal("replay against the wrong problem should fail")
	}
}

func TestCleanProtocolSweep(t *testing.T) {
	rep, err := Run(context.Background(), protocols.Tree{Procs: 3},
		problem(taxonomy.WT, taxonomy.TC),
		Options{Runs: 200, Seed: 11, MaxFailures: 2, Minimize: true})
	if err != nil {
		t.Fatalf("chaos.Run: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("tree(3) chaos sweep found a failure: %v", rep.Failures[0].Violations)
	}
	if rep.Passed != rep.Runs {
		t.Fatalf("passed %d of %d runs (unresolved %d, aborted %d)",
			rep.Passed, rep.Runs, rep.Unresolved, rep.Aborted)
	}
	if rep.InjectionsPlanned != rep.InjectionsFired+rep.InjectionsUnfired {
		t.Fatalf("injection accounting inconsistent: %d planned ≠ %d fired + %d unfired",
			rep.InjectionsPlanned, rep.InjectionsFired, rep.InjectionsUnfired)
	}
}

func TestCancelledSweepReturnsPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, protocols.Chain{Procs: 3, ST: true},
		problem(taxonomy.ST, taxonomy.IC), chainSTOptions())
	if rep == nil {
		t.Fatal("cancelled sweep must still return the partial report")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Status != StatusInterrupted {
		t.Fatalf("status = %v, want interrupted", rep.Status)
	}
	if rep.Aborted != rep.Runs {
		t.Fatalf("pre-cancelled sweep completed %d runs, want 0", rep.Completed())
	}
	if got := rep.Passed + rep.Violated + rep.Panicked + rep.Unresolved + rep.Aborted; got != rep.Runs {
		t.Fatalf("outcome partition sums to %d, want %d", got, rep.Runs)
	}
}

// grenadeState is a two-processor fixture whose receiver panics: p0 sends one
// message, p1 blows up on receipt.
type grenadeState struct {
	id   sim.ProcID
	sent bool
}

func (s grenadeState) Kind() sim.StateKind {
	if s.id == 0 && !s.sent {
		return sim.Sending
	}
	return sim.Receiving
}
func (s grenadeState) Decided() (sim.Decision, bool) { return sim.NoDecision, false }
func (s grenadeState) Amnesic() bool                 { return false }
func (s grenadeState) Key() string {
	k := "grenade{" + s.id.String()
	if s.sent {
		k += " sent"
	}
	return k + "}"
}

type grenadePayload struct{}

func (grenadePayload) Key() string { return "pin" }

type grenadeProto struct{}

func (grenadeProto) Name() string { return "grenade" }
func (grenadeProto) N() int       { return 2 }
func (grenadeProto) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	return grenadeState{id: p}
}
func (grenadeProto) Receive(p sim.ProcID, s sim.State, m sim.Message) sim.State {
	if !m.Notice {
		panic("grenade: boom")
	}
	return s
}
func (grenadeProto) SendStep(p sim.ProcID, s sim.State) (sim.State, []sim.Envelope) {
	st := s.(grenadeState)
	st.sent = true
	return st, []sim.Envelope{{To: 1, Payload: grenadePayload{}}}
}

func TestPanicBecomesReportedFailure(t *testing.T) {
	prob := problem(taxonomy.WT, taxonomy.TC)
	rep, err := Run(context.Background(), grenadeProto{}, prob,
		Options{Runs: 5, Seed: 3, MaxFailures: 0})
	if err != nil {
		t.Fatalf("chaos.Run: %v", err)
	}
	if rep.Panicked != 5 {
		t.Fatalf("panicked = %d, want 5 (violated %d, passed %d)", rep.Panicked, rep.Violated, rep.Passed)
	}
	f := rep.Failures[0]
	if f.Outcome != OutcomePanicked || f.PanicValue != "grenade: boom" {
		t.Fatalf("failure = %+v, want recovered panic", f)
	}

	tr := BuildTrace(rep, f, 10_000)
	data, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(decoded, grenadeProto{}, prob)
	if err != nil {
		t.Fatalf("panic replay: %v", err)
	}
	if !res.Reproduced || res.PanicValue != "grenade: boom" {
		t.Fatalf("panic did not reproduce: %+v", res)
	}

	// A run that panics accounts for its planned injections like any
	// other: those the walk injected before the panic fired, the rest did
	// not, run by run and in the sweep's totals.
	rep, err = Run(context.Background(), grenadeProto{}, prob,
		Options{Runs: 40, Seed: 3, MaxFailures: 1})
	if err != nil {
		t.Fatalf("chaos.Run: %v", err)
	}
	planned, fired, unfired, panickedFired := 0, 0, 0, 0
	for _, st := range rep.RunStats {
		if st.InjectionsPlanned != st.InjectionsFired+st.InjectionsUnfired {
			t.Errorf("run %d (%s): %d injections planned, %d fired, %d unfired", st.Run, st.Outcome,
				st.InjectionsPlanned, st.InjectionsFired, st.InjectionsUnfired)
		}
		planned += st.InjectionsPlanned
		fired += st.InjectionsFired
		unfired += st.InjectionsUnfired
		if st.Outcome == OutcomePanicked.String() {
			panickedFired += st.InjectionsFired
		}
	}
	if rep.InjectionsPlanned != rep.InjectionsFired+rep.InjectionsUnfired ||
		planned != rep.InjectionsPlanned || fired != rep.InjectionsFired || unfired != rep.InjectionsUnfired {
		t.Errorf("sweep accounts %d planned, %d fired, %d unfired; its runs %d, %d, %d",
			rep.InjectionsPlanned, rep.InjectionsFired, rep.InjectionsUnfired, planned, fired, unfired)
	}
	if rep.Panicked == 0 || unfired == 0 || panickedFired == 0 {
		t.Errorf("thin coverage: %d panicked runs, %d unfired injections, %d fired by panicking runs",
			rep.Panicked, unfired, panickedFired)
	}

	// An injection naming a processor the protocol does not have is
	// refused by the scheduler before the first step: an error, not a
	// reproduced (or any other) panic.
	bad := *decoded
	bad.Injections = []sim.FailureAt{{Proc: 9, AfterStep: 0}}
	res, err = Replay(&bad, grenadeProto{}, prob)
	if err == nil || !strings.Contains(err.Error(), "names processor 9") || res != nil {
		t.Fatalf("panic replay with an injection at p9 = (%+v, %v), want no result and the scheduler's error", res, err)
	}
}

// TestFailureSchedulesAreTheirOwn: a worker walks every run into one reused
// buffer, so a Failure that kept that buffer would be overwritten by the
// worker's next run. With Minimize off, every reported schedule must equal a
// fresh walk of its run's plan, at one worker and at eight.
func TestFailureSchedulesAreTheirOwn(t *testing.T) {
	proto, prob := protocols.Tree{Procs: 7}, problem(taxonomy.WT, taxonomy.TC)
	for _, par := range []int{1, 8} {
		opts := Options{Runs: 120, Seed: 611, Parallel: par, MaxFailures: 0,
			Adversary: AdversaryAdaptive, OmissionBudget: 2, MobileOmissions: 1}
		rep, err := Run(context.Background(), proto, prob, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violated < 100 {
			t.Fatalf("parallel %d: %d violating runs, want at least 100", par, rep.Violated)
		}
		plans := PlanRuns(opts.Seed, opts.Runs, proto.N(), 0, nil)
		for _, f := range rep.Failures {
			pl := plans[f.RunIndex]
			adv, err := NewAdversary(opts.Adversary)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(pl.Seed))
			c := sim.NewConfigOmission(proto, pl.Inputs, opts.omission())
			want, _, _ := sim.RandomWalk(proto, c, sim.RunnerOptions{
				MaxSteps: opts.maxSteps(), Failures: pl.Failures,
				Choose: func(c *sim.Config, enabled []sim.Event) int { return adv.Choose(rng, proto, c, enabled) },
			}, nil, func(sim.Event, *sim.Config) {})
			if got, want := compactSchedule(f.Schedule), compactSchedule(want); got != want {
				t.Fatalf("parallel %d, run %d: reported schedule\n\t%s\na fresh walk of its plan\n\t%s", par, f.RunIndex, got, want)
			}
		}
	}
}
