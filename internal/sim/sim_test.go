package sim

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// echoPayload is a minimal payload for tests.
type echoPayload string

func (e echoPayload) Key() string { return string(e) }

// pingState is a trivial two-processor protocol state: p0 sends one ping to
// p1 and decides commit; p1 decides the value it receives.
type pingState struct {
	id      ProcID
	sent    bool
	decided Decision
}

func (s pingState) Kind() StateKind {
	if s.id == 0 && !s.sent {
		return Sending
	}
	return Receiving
}

func (s pingState) Decided() (Decision, bool) {
	if s.decided == NoDecision {
		return NoDecision, false
	}
	return s.decided, true
}
func (s pingState) Amnesic() bool { return false }
func (s pingState) Key() string {
	k := "ping{" + s.id.String()
	if s.sent {
		k += " sent"
	}
	if s.decided != NoDecision {
		k += " " + s.decided.String()
	}
	return k + "}"
}

type pingProto struct{}

func (pingProto) Name() string { return "ping" }
func (pingProto) N() int       { return 2 }
func (pingProto) Init(p ProcID, input Bit, n int) State {
	return pingState{id: p}
}
func (pingProto) Receive(p ProcID, s State, m Message) State {
	st := s.(pingState)
	if !m.Notice {
		st.decided = Commit
	}
	return st
}
func (pingProto) SendStep(p ProcID, s State) (State, []Envelope) {
	st := s.(pingState)
	if st.sent {
		return st, nil
	}
	st.sent = true
	st.decided = Commit
	return st, []Envelope{{To: 1, Payload: echoPayload("ping")}}
}

func TestPingProtocolRuns(t *testing.T) {
	run, err := RandomRun(pingProto{}, []Bit{One, One}, RunnerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !run.FailureFree() {
		t.Error("expected failure-free run")
	}
	if run.MessagesSent() != 1 {
		t.Errorf("MessagesSent = %d, want 1", run.MessagesSent())
	}
	for p := 0; p < 2; p++ {
		if d, ok := run.DecisionOf(ProcID(p)); !ok || d != Commit {
			t.Errorf("%s decision = %v, %v; want commit", ProcID(p), d, ok)
		}
	}
	if !run.Final().Quiescent() {
		t.Error("final configuration should be quiescent")
	}
}

func TestApplicability(t *testing.T) {
	c := NewConfig(pingProto{}, []Bit{One, One})
	// p0 is sending: deliver is inapplicable, send is applicable.
	if Applicable(c, Event{Proc: 0, Type: Deliver, Msg: MsgID{From: 1, To: 0, Seq: 1}}) {
		t.Error("deliver should be inapplicable to a sending state")
	}
	if !Applicable(c, Event{Proc: 0, Type: SendStepEvent}) {
		t.Error("send step should be applicable to a sending state")
	}
	// p1 is receiving with an empty buffer: nothing to deliver.
	if Applicable(c, Event{Proc: 1, Type: Deliver, Msg: MsgID{From: 0, To: 1, Seq: 1}}) {
		t.Error("deliver of a non-buffered message should be inapplicable")
	}
	// Anyone may fail.
	if !Applicable(c, Event{Proc: 1, Type: Fail}) {
		t.Error("failure should be applicable to an operational processor")
	}
}

func TestFailureBroadcastsNotices(t *testing.T) {
	c := NewConfig(pingProto{}, []Bit{One, One})
	next, eff, err := Apply(pingProto{}, c, Event{Proc: 0, Type: Fail})
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Sent) != 1 {
		t.Fatalf("failure should notify the 1 other processor, notified %d", len(eff.Sent))
	}
	if !eff.Sent[0].Notice {
		t.Error("failure step should send a notice")
	}
	if next.States[0].Kind() != Failed {
		t.Error("failed processor should occupy a failed state")
	}
	// Failed processors take no further steps.
	if Applicable(next, Event{Proc: 0, Type: Fail}) {
		t.Error("a failed processor cannot fail again")
	}
	if Applicable(next, Event{Proc: 0, Type: SendStepEvent}) {
		t.Error("a failed processor cannot send")
	}
}

func TestSelfSendRejected(t *testing.T) {
	bad := selfSendProto{}
	c := NewConfig(bad, []Bit{One, One})
	_, _, err := Apply(bad, c, Event{Proc: 0, Type: SendStepEvent})
	if !errors.Is(err, ErrSelfSend) {
		t.Fatalf("err = %v, want ErrSelfSend", err)
	}
}

type selfSendProto struct{ pingProto }

func (selfSendProto) SendStep(p ProcID, s State) (State, []Envelope) {
	st := s.(pingState)
	st.sent = true
	return st, []Envelope{{To: p, Payload: echoPayload("self")}}
}

func TestRevokedDecisionRejected(t *testing.T) {
	bad := revokeProto{}
	c := NewConfig(bad, []Bit{One, One})
	// p0 sends twice; the second send step flips its decision from
	// commit to abort, which Apply must reject.
	c2, _, err := Apply(bad, c, Event{Proc: 0, Type: SendStepEvent})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Apply(bad, c2, Event{Proc: 0, Type: SendStepEvent})
	if !errors.Is(err, ErrRevokedDecision) {
		t.Fatalf("err = %v, want ErrRevokedDecision", err)
	}
}

// revokeProto decides commit on its first send and illegally flips to abort
// on the second.
type revokeProto struct{ pingProto }

type revokeState struct {
	sends   int
	decided Decision
}

func (s revokeState) Kind() StateKind { return Sending }
func (s revokeState) Decided() (Decision, bool) {
	return s.decided, s.decided != NoDecision
}
func (s revokeState) Amnesic() bool { return false }
func (s revokeState) Key() string {
	return "revoke{" + s.decided.String() + "}"
}

func (revokeProto) Init(p ProcID, input Bit, n int) State {
	if p == 0 {
		return revokeState{decided: NoDecision}
	}
	return pingState{id: p}
}

func (revokeProto) SendStep(p ProcID, s State) (State, []Envelope) {
	st, ok := s.(revokeState)
	if !ok {
		return s, nil
	}
	st.sends++
	if st.decided == NoDecision {
		st.decided = Commit
	} else {
		st.decided = Abort // illegal revocation
	}
	return st, nil
}

func TestBufferAddRemove(t *testing.T) {
	var b Buffer
	m1 := Message{ID: MsgID{From: 0, To: 1, Seq: 1}, Payload: echoPayload("a")}
	m2 := Message{ID: MsgID{From: 0, To: 1, Seq: 2}, Payload: echoPayload("b")}
	b = b.Add(m2)
	b = b.Add(m1)
	if len(b) != 2 {
		t.Fatalf("len = %d, want 2", len(b))
	}
	if _, ok := b.Find(m1.ID); !ok {
		t.Error("m1 should be present")
	}
	b2, ok := b.Remove(m1.ID)
	if !ok || len(b2) != 1 {
		t.Fatalf("remove failed: ok=%v len=%d", ok, len(b2))
	}
	if _, ok := b2.Find(m1.ID); ok {
		t.Error("m1 should be gone")
	}
	// The original buffer is unchanged (persistent semantics).
	if len(b) != 2 {
		t.Error("Remove must not mutate the receiver")
	}
}

func TestConfigKeyDeterministic(t *testing.T) {
	a := NewConfig(pingProto{}, []Bit{One, Zero})
	b := NewConfig(pingProto{}, []Bit{One, Zero})
	if a.Key() != b.Key() {
		t.Error("identical configurations should have equal keys")
	}
	c := NewConfig(pingProto{}, []Bit{Zero, One})
	if a.Key() == c.Key() {
		t.Error("different inputs should give different keys")
	}
}

func TestAllInputs(t *testing.T) {
	vecs := AllInputs(3)
	if len(vecs) != 8 {
		t.Fatalf("len = %d, want 8", len(vecs))
	}
	seen := make(map[string]bool)
	for _, v := range vecs {
		var sb strings.Builder
		for _, b := range v {
			if b == One {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		seen[sb.String()] = true
	}
	if len(seen) != 8 {
		t.Errorf("expected 8 distinct vectors, got %d", len(seen))
	}
}

func TestUnanimityProperty(t *testing.T) {
	f := func(bits []bool) bool {
		inputs := make([]Bit, len(bits))
		all := true
		for i, b := range bits {
			if b {
				inputs[i] = One
			} else {
				all = false
			}
		}
		got := Unanimity(inputs)
		if all {
			return got == Commit
		}
		return got == Abort
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInputsFromString(t *testing.T) {
	in, err := InputsFromString("101")
	if err != nil {
		t.Fatal(err)
	}
	want := []Bit{One, Zero, One}
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("in[%d] = %d, want %d", i, in[i], want[i])
		}
	}
	if _, err := InputsFromString("10x"); err == nil {
		t.Error("expected error for malformed vector")
	}
}

// TestInputsStringRoundTrip holds the renderer to the parser on every
// vector up to N = 10.
func TestInputsStringRoundTrip(t *testing.T) {
	for n := 0; n <= 10; n++ {
		for _, v := range AllInputs(n) {
			s := InputsString(v)
			back, err := InputsFromString(s)
			if err != nil || len(s) != n || !slices.Equal(back, v) {
				t.Fatalf("InputsFromString(InputsString(%v)) = %v, %v via %q", v, back, err, s)
			}
		}
	}
}

func TestRunSeedDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		r1, err1 := RandomRun(pingProto{}, []Bit{One, One}, RunnerOptions{Seed: seed})
		r2, err2 := RandomRun(pingProto{}, []Bit{One, One}, RunnerOptions{Seed: seed})
		if err1 != nil || err2 != nil {
			return false
		}
		if len(r1.Schedule) != len(r2.Schedule) {
			return false
		}
		for i := range r1.Schedule {
			if r1.Schedule[i] != r2.Schedule[i] {
				return false
			}
		}
		return r1.Final().Key() == r2.Final().Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
