package sim

import (
	"strings"
	"testing"
)

func TestTraceAndSummary(t *testing.T) {
	run, err := RandomRun(ppTestProto{}, []Bit{One, One}, RunnerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	trace := run.Trace()
	if len(trace) != run.Steps()+1 {
		t.Fatalf("trace lines = %d, want %d", len(trace), run.Steps()+1)
	}
	joined := strings.Join(trace, "\n")
	if !strings.Contains(joined, "initial configuration: inputs 11") {
		t.Errorf("missing initial line:\n%s", joined)
	}
	if !strings.Contains(joined, "→ (p0,p1,1) ping") {
		t.Errorf("missing send annotation:\n%s", joined)
	}
	if !strings.Contains(joined, "decides commit") {
		t.Errorf("missing decision annotation:\n%s", joined)
	}

	sum := run.Summary()
	for _, want := range []string{"pingpong2", "decided commit", "failure-free=true"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestTraceAnnotatesFailures(t *testing.T) {
	run, err := RandomRun(ppTestProto{}, []Bit{One, One}, RunnerOptions{
		Seed:     1,
		Failures: []FailureAt{{Proc: 1, AfterStep: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.FailureFree() {
		t.Fatal("run should contain the injected failure")
	}
	if !strings.Contains(strings.Join(run.Trace(), "\n"), "p1 fails") {
		t.Error("trace should show the failure event")
	}
	if !strings.Contains(run.Summary(), "failed") {
		t.Error("summary should flag the failed processor")
	}
}

// ppTestProto is a two-processor ping/pong-decide protocol for trace tests.
type ppTestProto struct{}

type ppTestState struct {
	id    ProcID
	stage int
}

func (s ppTestState) Kind() StateKind {
	if (s.id == 0 && s.stage == 0) || (s.id == 1 && s.stage == 1) {
		return Sending
	}
	return Receiving
}
func (s ppTestState) Decided() (Decision, bool) {
	if s.stage == 2 {
		return Commit, true
	}
	return NoDecision, false
}
func (s ppTestState) Amnesic() bool { return false }
func (s ppTestState) Key() string {
	return "pp2{" + s.id.String() + string(rune('0'+s.stage)) + "}"
}

func (ppTestProto) Name() string { return "pingpong2" }
func (ppTestProto) N() int       { return 2 }
func (ppTestProto) Init(p ProcID, input Bit, n int) State {
	return ppTestState{id: p}
}
func (ppTestProto) Receive(p ProcID, s State, m Message) State {
	st := s.(ppTestState)
	if m.Notice {
		if st.id == 0 && st.stage == 1 {
			st.stage = 2 // decide on failure detection so the run quiesces
		}
		return st
	}
	if st.id == 1 && st.stage == 0 {
		st.stage = 1
	} else if st.id == 0 && st.stage == 1 {
		st.stage = 2
	}
	return st
}
func (ppTestProto) SendStep(p ProcID, s State) (State, []Envelope) {
	st := s.(ppTestState)
	switch {
	case st.id == 0 && st.stage == 0:
		st.stage = 1
		return st, []Envelope{{To: 1, Payload: echoPayload("ping")}}
	case st.id == 1 && st.stage == 1:
		st.stage = 2
		return st, []Envelope{{To: 0, Payload: echoPayload("pong")}}
	}
	return st, nil
}

// TestRunExtend: a run extends by a schedule event by event, and an
// inapplicable event stops it with an error and the prefix applied.
func TestRunExtend(t *testing.T) {
	proto := ppTestProto{}
	r, err := NewRun(proto, []Bit{One, One})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Extend(Schedule{
		{Proc: 0, Type: SendStepEvent},
		{Proc: 1, Type: Deliver, Msg: MsgID{From: 0, To: 1, Seq: 1}},
		{Proc: 1, Type: SendStepEvent},
		{Proc: 0, Type: Deliver, Msg: MsgID{From: 1, To: 0, Seq: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if len(r.Effects) != 4 {
		t.Fatalf("effects = %d", len(r.Effects))
	}
	if !r.Final().Quiescent() {
		t.Fatal("final configuration should be quiescent")
	}
	r2, err := NewRun(proto, []Bit{One, One})
	if err != nil {
		t.Fatal(err)
	}
	err = r2.Extend(Schedule{
		{Proc: 0, Type: SendStepEvent},
		{Proc: 0, Type: SendStepEvent}, // p0 is receiving now
	})
	if err == nil {
		t.Fatal("expected error on inapplicable event")
	}
	if len(r2.Effects) != 1 {
		t.Fatalf("prefix effects = %d, want 1", len(r2.Effects))
	}
}

func TestEnumHelpers(t *testing.T) {
	if Receiving.String() != "receiving" || Sending.String() != "sending" ||
		Halted.String() != "halted" || Failed.String() != "failed" {
		t.Error("StateKind names wrong")
	}
	if StateKind(0).String() != "invalid" {
		t.Error("invalid StateKind should say so")
	}
	if Deliver.String() != "deliver" || SendStepEvent.String() != "send" || Fail.String() != "fail" {
		t.Error("EventType names wrong")
	}
	if EventType(0).String() != "invalid" {
		t.Error("invalid EventType should say so")
	}
	if Commit.String() != "commit" || Abort.String() != "abort" || NoDecision.String() != "undecided" {
		t.Error("Decision names wrong")
	}
	if Commit.Value() != One || Abort.Value() != Zero {
		t.Error("Decision values wrong")
	}
	if DecisionFor(One) != Commit || DecisionFor(Zero) != Abort {
		t.Error("DecisionFor wrong")
	}
	if ProcID(3).String() != "p3" {
		t.Error("ProcID rendering wrong")
	}
	id := MsgID{From: 1, To: 2, Seq: 3}
	if id.String() != "(p1,p2,3)" {
		t.Errorf("MsgID rendering: %s", id)
	}
	if !id.Less(MsgID{From: 2}) || id.Less(MsgID{From: 1, To: 2, Seq: 3}) {
		t.Error("MsgID ordering wrong")
	}
	if !(MsgID{From: 1, To: 1, Seq: 1}).Less(MsgID{From: 1, To: 2, Seq: 0}) {
		t.Error("MsgID ordering should be lexicographic on To")
	}
}

func TestDecisionValuePanicsOnNoDecision(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NoDecision.Value should panic")
		}
	}()
	_ = NoDecision.Value()
}

func TestConfigHelpers(t *testing.T) {
	c := NewConfig(ppTestProto{}, []Bit{One, Zero})
	if got := len(c.Operational()); got != 2 {
		t.Errorf("Operational = %d, want 2", got)
	}
	if c.Faulty(0) {
		t.Error("nobody failed yet")
	}
	next, _, err := Apply(ppTestProto{}, c, Event{Proc: 1, Type: Fail})
	if err != nil {
		t.Fatal(err)
	}
	if !next.Faulty(1) || len(next.Operational()) != 1 {
		t.Error("p1 should be faulty")
	}
	if ds := next.Decisions(); ds[0] != NoDecision || ds[1] != NoDecision {
		t.Error("no decisions yet")
	}
	if c.StateKey() == "" || !strings.Contains(c.StateKey(), ";") {
		t.Error("StateKey should join state keys")
	}
	// Failed-state helpers.
	fs := FailedStateFor(2)
	if fs.Kind() != Failed || IsOperational(fs) || IsNonfaulty(fs) {
		t.Error("failed-state helpers wrong")
	}
	if fs.Amnesic() {
		t.Error("failed states are not amnesic")
	}
	if _, ok := fs.Decided(); ok {
		t.Error("failed states are undecided")
	}
}

func TestRunnerRejectsWrongInputLength(t *testing.T) {
	if _, err := RandomRun(ppTestProto{}, []Bit{One}, RunnerOptions{}); err == nil {
		t.Fatal("expected input-length error")
	}
}

func TestBufferKeyAndMessageKey(t *testing.T) {
	var b Buffer
	if b.Key() != "∅" {
		t.Errorf("empty buffer key = %q", b.Key())
	}
	m := Message{ID: MsgID{From: 0, To: 1, Seq: 1}, Payload: echoPayload("x")}
	n := Message{ID: MsgID{From: 0, To: 1, Seq: 2}, Notice: true}
	b = b.Add(m).Add(n)
	if !strings.Contains(b.Key(), "|") {
		t.Error("buffer key should join message keys")
	}
	if !strings.Contains(n.Key(), "failed") || !strings.Contains(n.String(), "failed(p0)") {
		t.Error("notice rendering wrong")
	}
	if !strings.Contains(m.String(), "x") {
		t.Error("message rendering wrong")
	}
}
