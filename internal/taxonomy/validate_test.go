package taxonomy

import (
	"reflect"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
)

// completeRun drives a protocol to quiescence under the seeded scheduler.
func completeRun(t *testing.T, proto sim.Protocol, inputs string, failures ...sim.FailureAt) *sim.Run {
	t.Helper()
	in, err := sim.InputsFromString(inputs)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.RandomRun(proto, in, sim.RunnerOptions{Seed: 11, Failures: failures})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestValidateCleanCommitRun(t *testing.T) {
	run := completeRun(t, protocols.AckCommit{Procs: 4}, "1111")
	problem := Problem{Rule: UnanimityRule{}, Termination: WT, Consistency: TC}
	if vs := problem.Validate(run, true); len(vs) != 0 {
		t.Fatalf("clean run should validate: %v", vs)
	}
}

func TestValidateHaltingRun(t *testing.T) {
	run := completeRun(t, protocols.HaltingCommit{Procs: 4}, "1101")
	problem := Problem{Rule: UnanimityRule{}, Termination: HT, Consistency: TC}
	if vs := problem.Validate(run, true); len(vs) != 0 {
		t.Fatalf("halting run should validate HT-TC: %v", vs)
	}
}

func TestValidateDetectsMissedTermination(t *testing.T) {
	// The chain protocol never halts, so HT must flag every processor.
	run := completeRun(t, protocols.Chain{Procs: 3}, "111")
	vs := Problem{Rule: UnanimityRule{}, Termination: HT, Consistency: TC}.Validate(run, true)
	htCount := 0
	for _, v := range vs {
		if v.Kind == "HT" {
			htCount++
		}
	}
	if htCount != 3 {
		t.Fatalf("expected 3 HT violations for the non-halting chain, got %d: %v", htCount, vs)
	}
	if vs2 := (Problem{Rule: UnanimityRule{}, Termination: WT, Consistency: TC}).Validate(run, true); len(vs2) != 0 {
		t.Fatalf("the same run satisfies WT: %v", vs2)
	}
}

func TestValidateDetectsSTViolation(t *testing.T) {
	// Non-amnesic protocols fail ST on complete runs.
	stTC := Problem{Rule: UnanimityRule{}, Termination: ST, Consistency: TC}
	run := completeRun(t, protocols.Chain{Procs: 3}, "111")
	if vs := stTC.Validate(run, true); len(vs) != 3 || vs[0].Kind != "ST" {
		t.Fatal("non-amnesic chain should violate ST")
	}
	// The amnesic tree variant satisfies ST.
	runST := completeRun(t, protocols.Tree{Procs: 3, ST: true}, "111")
	if vs := stTC.Validate(runST, true); len(vs) != 0 {
		t.Fatalf("amnesic tree should satisfy ST: %v", vs)
	}
}

func TestCheckTCFindsStarViolation(t *testing.T) {
	// Drive the star protocol into its Theorem 8 counterexample: the
	// coordinator commits, halts, and fails; the participants detect a
	// failure first and abort.
	in, _ := sim.InputsFromString("111")
	proto := protocols.Star{Procs: 3}
	cfg := sim.NewConfig(proto, in)
	run := &sim.Run{Proto: proto, Configs: []*sim.Config{cfg}}
	mustExtend := func(events ...sim.Event) {
		t.Helper()
		if err := run.Extend(sim.Schedule(events)); err != nil {
			t.Fatal(err)
		}
	}
	// Votes reach p0, which decides commit and halts after broadcasting.
	mustExtend(
		sim.Event{Proc: 1, Type: sim.SendStepEvent},
		sim.Event{Proc: 2, Type: sim.SendStepEvent},
		sim.Event{Proc: 0, Type: sim.Deliver, Msg: sim.MsgID{From: 1, To: 0, Seq: 1}},
		sim.Event{Proc: 0, Type: sim.Deliver, Msg: sim.MsgID{From: 2, To: 0, Seq: 1}},
		sim.Event{Proc: 0, Type: sim.SendStepEvent}, // decision to p1
		sim.Event{Proc: 0, Type: sim.SendStepEvent}, // decision to p2, then halt
	)
	if d, ok := run.DecisionOf(0); !ok || d != sim.Commit {
		t.Fatalf("p0 should have committed: %v %v", d, ok)
	}
	// p0 and p2 fail; p1 survives alone, never receiving the decision.
	mustExtend(
		sim.Event{Proc: 0, Type: sim.Fail},
		sim.Event{Proc: 2, Type: sim.Fail},
		sim.Event{Proc: 1, Type: sim.Deliver, Msg: sim.MsgID{From: 2, To: 1, Seq: 1}}, // p2's notice
	)
	// p1 is in the modified termination protocol: it broadcasts its
	// round-1 message toward p0, then learns of p0's failure; with
	// everyone removed from UP, its rounds cascade and it aborts.
	mustExtend(
		sim.Event{Proc: 1, Type: sim.SendStepEvent},                                   // term round 1 → p0
		sim.Event{Proc: 1, Type: sim.Deliver, Msg: sim.MsgID{From: 0, To: 1, Seq: 2}}, // p0's notice
	)
	if d, ok := run.DecisionOf(1); !ok || d != sim.Abort {
		t.Fatalf("p1 should have aborted alone: %v %v (state %s)", d, ok, run.Final().States[1].Key())
	}

	wantTC := []Violation{{Kind: "TC", Detail: "p0 decided commit but p1 decided abort"}}
	if vs := (Problem{Rule: UnanimityRule{}, Termination: WT, Consistency: TC}).Validate(run, false); !reflect.DeepEqual(vs, wantTC) {
		t.Fatalf("total consistency violation should be detected (failed p0 committed, p1 aborted): %v", vs)
	}
	if vs := (Problem{Rule: UnanimityRule{}, Termination: WT, Consistency: IC}).Validate(run, false); len(vs) != 0 {
		t.Fatalf("interactive consistency holds (p0 failed before p1 decided): %v", vs)
	}
}

func TestValidateRuleViolationDetection(t *testing.T) {
	// Construct a run of a bogus protocol that commits despite a 0 input.
	proto := commitAnywayProto{}
	run, err := sim.RandomRun(proto, []sim.Bit{sim.Zero, sim.One}, sim.RunnerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	problem := Problem{Rule: UnanimityRule{}, Termination: WT, Consistency: TC}
	vs := problem.Validate(run, true)
	found := false
	for _, v := range vs {
		if v.Kind == "rule" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a rule violation, got %v", vs)
	}
}

// commitAnywayProto ignores its inputs and commits immediately: a decision
// rule violation generator.
type commitAnywayProto struct{}

type commitAnywayState struct{ id sim.ProcID }

func (s commitAnywayState) Kind() sim.StateKind           { return sim.Receiving }
func (s commitAnywayState) Decided() (sim.Decision, bool) { return sim.Commit, true }
func (s commitAnywayState) Amnesic() bool                 { return false }
func (s commitAnywayState) Key() string                   { return "anyway{" + s.id.String() + "}" }

func (commitAnywayProto) Name() string { return "commit-anyway" }
func (commitAnywayProto) N() int       { return 2 }
func (commitAnywayProto) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	return commitAnywayState{id: p}
}
func (commitAnywayProto) Receive(p sim.ProcID, s sim.State, m sim.Message) sim.State { return s }
func (commitAnywayProto) SendStep(p sim.ProcID, s sim.State) (sim.State, []sim.Envelope) {
	return s, nil
}
