package sim

import (
	"errors"
	"testing"

	"repro/internal/fingerprint"
)

// digestProto is a small two-phase echo protocol rich enough to exercise
// sends, deliveries, decisions, and failures in fingerprint tests.
type digestProto struct{ n int }

type dpState struct {
	phase int
	bit   Bit
}

func (s dpState) Kind() StateKind {
	switch s.phase {
	case 0:
		return Sending
	case 1:
		return Receiving
	default:
		return Halted
	}
}
func (s dpState) Decided() (Decision, bool) {
	if s.phase >= 2 {
		return DecisionFor(s.bit), true
	}
	return NoDecision, false
}
func (s dpState) Amnesic() bool { return false }
func (s dpState) Key() string {
	return "dp" + string(rune('0'+s.phase)) + string(rune('0'+s.bit))
}

type dpPayload struct{ bit Bit }

func (p dpPayload) Key() string { return "b" + string(rune('0'+p.bit)) }

func (d digestProto) Name() string { return "digestproto" }
func (d digestProto) N() int       { return d.n }
func (d digestProto) Init(p ProcID, input Bit, n int) State {
	return dpState{phase: 0, bit: input}
}
func (d digestProto) Receive(p ProcID, s State, m Message) State {
	st := s.(dpState)
	if st.phase == 1 {
		return dpState{phase: 2, bit: st.bit}
	}
	return s
}
func (d digestProto) SendStep(p ProcID, s State) (State, []Envelope) {
	st := s.(dpState)
	if st.phase != 0 {
		return s, nil
	}
	to := ProcID((int(p) + 1) % d.n)
	return dpState{phase: 1, bit: st.bit}, []Envelope{{To: to, Payload: dpPayload{bit: st.bit}}}
}

// TestFingerprintMatchesKey: across an exhaustive breadth-first walk of
// the protocol (with failures), two configurations have equal fingerprints
// iff they have equal canonical keys. This pins the fingerprint to exactly
// the equivalence Key defines — including the exclusion of channel
// sequence counters.
func TestFingerprintMatchesKey(t *testing.T) {
	proto := digestProto{n: 3}
	byKey := make(map[string]fingerprint.Digest)
	byFP := make(map[fingerprint.Digest]string)
	var walk func(c *Config, failures int, depth int)
	walk = func(c *Config, failures int, depth int) {
		key := c.Key()
		fp := c.Fingerprint()
		if prev, ok := byKey[key]; ok {
			if prev != fp {
				t.Fatalf("same key, different fingerprints: %s", key)
			}
		} else {
			byKey[key] = fp
		}
		if prevKey, ok := byFP[fp]; ok {
			if prevKey != key {
				t.Fatalf("fingerprint collision: %q vs %q", prevKey, key)
			}
		} else {
			byFP[fp] = key
		}
		if depth == 0 {
			return
		}
		events := Enabled(c)
		if failures < 1 {
			for p := 0; p < c.N(); p++ {
				if c.States[p].Kind() != Failed {
					events = append(events, Event{Proc: ProcID(p), Type: Fail})
				}
			}
		}
		for _, e := range events {
			next, _, err := Apply(proto, c, e)
			if err != nil {
				t.Fatalf("apply %s: %v", e, err)
			}
			nf := failures
			if e.Type == Fail {
				nf++
			}
			walk(next, nf, depth-1)
		}
	}
	for _, inputs := range AllInputs(3) {
		walk(NewConfig(proto, inputs), 0, 4)
	}
	if len(byKey) < 50 {
		t.Fatalf("walk too small to be meaningful: %d configs", len(byKey))
	}
}

// TestPredictorExact: the memoizing Predictor must agree with Apply on
// every applicable event of every explored configuration — Shift at width 1
// moves the fingerprint to the applied successor's and reports its decision
// and the id of the message it sent, Predict is that shift, and Materialize
// yields a configuration byte-identical (Key) and digest-identical
// (Fingerprint) to Apply's. This is the contract that lets the explorers
// route their entire hot path through the transition cache.
func TestPredictorExact(t *testing.T) {
	proto := digestProto{n: 3}
	pr := NewPredictor()
	one := NewPermuteMemo(nil)
	checked := 0
	seen := make(map[string]struct{})
	var walk func(c *Config, failures int, depth int)
	walk = func(c *Config, failures int, depth int) {
		if _, dup := seen[c.Key()]; dup || depth == 0 {
			return
		}
		seen[c.Key()] = struct{}{}
		events := Enabled(c)
		if failures < 1 {
			for p := 0; p < c.N(); p++ {
				if c.States[p].Kind() != Failed {
					events = append(events, Event{Proc: ProcID(p), Type: Fail})
				}
			}
		}
		for _, e := range events {
			vec := []fingerprint.Digest{c.Fingerprint()}
			sh, ok := pr.Shift(proto, c, e, one, false, vec)
			next, wantEff, err := Apply(proto, c, e)
			if err != nil {
				t.Fatalf("apply %s: %v", e, err)
			}
			if !ok {
				t.Fatalf("Shift refused applicable event %s", e)
			}
			if got := next.Fingerprint(); got != vec[0] {
				t.Fatalf("Shift fingerprint %v, applied %v (event %s at %s)", vec[0], got, e, c.Key())
			}
			if pred, ok := pr.Predict(proto, c, e); !ok || pred.CfgFP != vec[0] {
				t.Fatalf("Predict (%v, %v) is not Shift's slot 0 %v (event %s)", pred.CfgFP, ok, vec[0], e)
			}
			d, decided := next.States[e.Proc].Decided()
			if decided != sh.Decided || (decided && d != sh.Decision) {
				t.Fatalf("Shift decision (%v,%v), applied (%v,%v)", sh.Decision, sh.Decided, d, decided)
			}
			var eff Effect
			mat, err := pr.Materialize(proto, c, e, nil, &eff)
			if err != nil {
				t.Fatalf("materialize %s: %v", e, err)
			}
			if mat.Key() != next.Key() {
				t.Fatalf("Materialize key diverges from Apply:\n  %s\n  %s", mat.Key(), next.Key())
			}
			if mat.Fingerprint() != next.Fingerprint() {
				t.Fatalf("Materialize fingerprint diverges from Apply at %s", mat.Key())
			}
			if len(eff.Sent) != len(wantEff.Sent) ||
				(eff.Received == nil) != (wantEff.Received == nil) {
				t.Fatalf("Materialize effect shape diverges from Apply for %s", e)
			}
			for i := range eff.Sent {
				if eff.Sent[i].Key() != wantEff.Sent[i].Key() {
					t.Fatalf("Materialize sent %s, Apply sent %s", eff.Sent[i].Key(), wantEff.Sent[i].Key())
				}
			}
			if eff.Received != nil && eff.Received.Key() != wantEff.Received.Key() {
				t.Fatalf("Materialize received %s, Apply received %s", eff.Received.Key(), wantEff.Received.Key())
			}
			if want := e.Type == SendStepEvent && len(wantEff.Sent) == 1; sh.Sent != want || (want && sh.SentID != wantEff.Sent[0].ID) {
				t.Fatalf("Shift sent-info (%v,%v) diverges from Apply effect %v", sh.Sent, sh.SentID, wantEff.Sent)
			}
			checked++
			nf := failures
			if e.Type == Fail {
				nf++
			}
			walk(next, nf, depth-1)
		}
	}
	for _, inputs := range AllInputs(3) {
		walk(NewConfig(proto, inputs), 0, 5)
	}
	if checked < 100 {
		t.Fatalf("too few transitions checked: %d", checked)
	}
}

// multiSendProto emits two messages from one sending step.
type multiSendProto struct{ pingProto }

func (multiSendProto) SendStep(p ProcID, s State) (State, []Envelope) {
	st := s.(pingState)
	st.sent = true
	return st, []Envelope{{To: 1, Payload: echoPayload("a")}, {To: 1, Payload: echoPayload("b")}}
}

// TestPredictorMaterializeErrors: events the cache cannot vouch for — an
// inapplicable delivery, a self-send, a multi-send, a revoked decision — are
// routed through Apply, so callers observe Apply's exact errors, on the
// first call and again once the cache has remembered the transition as
// invalid. ApplyInPlace returns the same errors and, having run every check
// before its first write, leaves the configuration untouched; so does
// Materialize with the destination it was handed.
func TestPredictorMaterializeErrors(t *testing.T) {
	revoked, _, err := Apply(revokeProto{}, NewConfig(revokeProto{}, []Bit{One, One}), Event{Proc: 0, Type: SendStepEvent})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		proto Protocol
		c     *Config
		ev    Event
		want  error
	}{
		{"inapplicable", digestProto{n: 3}, NewConfig(digestProto{n: 3}, []Bit{Zero, One, Zero}),
			Event{Proc: 0, Type: Deliver, Msg: MsgID{From: 1, To: 0, Seq: 1}}, ErrNotApplicable},
		{"self-send", selfSendProto{}, NewConfig(selfSendProto{}, []Bit{One, One}), Event{Proc: 0, Type: SendStepEvent}, ErrSelfSend},
		{"multi-send", multiSendProto{}, NewConfig(multiSendProto{}, []Bit{One, One}), Event{Proc: 0, Type: SendStepEvent}, ErrMultiSend},
		{"revoked-decision", revokeProto{}, revoked, Event{Proc: 0, Type: SendStepEvent}, ErrRevokedDecision},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := NewPredictor()
			_, _, wantErr := Apply(tc.proto, tc.c, tc.ev)
			if !errors.Is(wantErr, tc.want) {
				t.Fatalf("Apply error %v, want %v", wantErr, tc.want)
			}
			own := tc.c.Clone()
			own.Fingerprint()
			if err := own.ApplyInPlace(tc.proto, tc.ev); err == nil || err.Error() != wantErr.Error() {
				t.Errorf("ApplyInPlace error %v; Apply's error is %v — must match", err, wantErr)
			}
			if own.Key() != tc.c.Key() || own.Fingerprint() != tc.c.Clone().Fingerprint() {
				t.Errorf("the refused ApplyInPlace changed the configuration:\n  %s\n  %s", own.Key(), tc.c.Key())
			}
			for _, pass := range []string{"cold", "warm"} {
				if _, ok := pr.Predict(tc.proto, tc.c, tc.ev); ok {
					t.Errorf("%s: Predict vouched for an event Apply rejects", pass)
				}
				next, err := pr.Materialize(tc.proto, tc.c, tc.ev, nil, nil)
				if next != nil || err == nil || err.Error() != wantErr.Error() {
					t.Errorf("%s: Materialize = %v, error %v; Apply's error is %v — must match", pass, next, err, wantErr)
				}
				dst := NewConfig(digestProto{n: 2}, []Bit{One, Zero})
				if _, err := pr.Materialize(tc.proto, tc.c, tc.ev, dst, nil); err == nil || dst.Key() != NewConfig(digestProto{n: 2}, []Bit{One, Zero}).Key() {
					t.Errorf("%s: a refused Materialize wrote its destination: %s", pass, dst.Key())
				}
			}
		})
	}
}

// TestPredictorRejects: prediction must refuse inapplicable events rather
// than fabricate fingerprints.
func TestPredictorRejects(t *testing.T) {
	proto := digestProto{n: 3}
	pr := NewPredictor()
	c := NewConfig(proto, []Bit{Zero, One, Zero})
	if _, ok := pr.Predict(proto, c, Event{Proc: 0, Type: Deliver, Msg: MsgID{From: 1, To: 0, Seq: 1}}); ok {
		t.Fatal("predicted delivery of an unbuffered message")
	}
	if _, ok := pr.Predict(proto, c, Event{Proc: 99, Type: Fail}); ok {
		t.Fatal("predicted event for out-of-range processor")
	}
	failed, _, err := Apply(proto, c, Event{Proc: 0, Type: Fail})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pr.Predict(proto, failed, Event{Proc: 0, Type: Fail}); ok {
		t.Fatal("predicted failure of an already-failed processor")
	}
}

// TestFingerprintColdPath: configurations that never had Fingerprint
// called still produce the right digest on demand after arbitrary Apply
// chains (the chaos/replay path leaves the cache cold).
func TestFingerprintColdPath(t *testing.T) {
	proto := digestProto{n: 3}
	warm := NewConfig(proto, []Bit{One, Zero, One})
	warm.Fingerprint() // warm cache from the root
	cold := NewConfig(proto, []Bit{One, Zero, One})
	sched := Schedule{
		{Proc: 0, Type: SendStepEvent},
		{Proc: 2, Type: SendStepEvent},
		{Proc: 1, Type: Fail},
	}
	w, c := warm, cold
	for _, e := range sched {
		var err error
		if w, _, err = Apply(proto, w, e); err != nil {
			t.Fatal(err)
		}
		if c, _, err = Apply(proto, c, e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Fingerprint() != c.Fingerprint() {
		t.Fatalf("warm and cold fingerprints diverge: %v vs %v", w.Fingerprint(), c.Fingerprint())
	}
	if w.Key() != c.Key() {
		t.Fatalf("keys diverge: %q vs %q", w.Key(), c.Key())
	}
}

// TestBufferRemoveSinglePass: RemoveMsg locates by binary search and
// agrees with linear Remove, including on absent messages.
func TestBufferRemoveSinglePass(t *testing.T) {
	var b Buffer
	msgs := make([]Message, 0, 8)
	for i := 1; i <= 8; i++ {
		m := Message{ID: MsgID{From: ProcID(i % 3), To: 1, Seq: i}, Payload: dpPayload{bit: Bit(i % 2)}}.Memoized()
		msgs = append(msgs, m)
		b = b.Add(m)
	}
	for _, m := range msgs {
		viaID, ok1 := b.Remove(m.ID)
		viaMsg, ok2 := b.RemoveMsg(m)
		if !ok1 || !ok2 {
			t.Fatalf("message %s not found for removal", m.Key())
		}
		if viaID.Key() != viaMsg.Key() {
			t.Fatalf("Remove and RemoveMsg disagree for %s:\n  %s\n  %s", m.Key(), viaID.Key(), viaMsg.Key())
		}
	}
	absent := Message{ID: MsgID{From: 2, To: 1, Seq: 99}, Payload: dpPayload{}}.Memoized()
	if _, ok := b.RemoveMsg(absent); ok {
		t.Fatal("RemoveMsg removed an absent message")
	}
	if _, ok := b.Remove(absent.ID); ok {
		t.Fatal("Remove removed an absent message")
	}
}

// TestBufferDigestMultiset: buffer digests are insertion-order independent
// and track adds/removes exactly.
func TestBufferDigestMultiset(t *testing.T) {
	m1 := Message{ID: MsgID{From: 0, To: 1, Seq: 1}, Payload: dpPayload{bit: One}}.Memoized()
	m2 := Message{ID: MsgID{From: 2, To: 1, Seq: 1}, Payload: dpPayload{bit: Zero}}.Memoized()
	var a, b Buffer
	a = a.Add(m1)
	a = a.Add(m2)
	b = b.Add(m2)
	b = b.Add(m1)
	if a.Digest() != b.Digest() {
		t.Fatal("buffer digest depends on insertion order")
	}
	removed, ok := a.RemoveMsg(m2)
	if !ok {
		t.Fatal("remove failed")
	}
	if got, want := removed.Digest(), (Buffer{}).Add(m1).Digest(); got != want {
		t.Fatalf("digest after remove = %v, want %v", got, want)
	}
}

// TestAllocsFailPrediction: predicting a failure successor on a warm
// configuration is allocation-free — the zero-alloc path the explorer
// leans on for the O(N) failure events injected per node.
func TestAllocsFailPrediction(t *testing.T) {
	proto := digestProto{n: 3}
	pr := NewPredictor()
	c := NewConfig(proto, []Bit{Zero, One, One})
	c.Fingerprint()
	ev := Event{Proc: 1, Type: Fail}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := pr.Predict(proto, c, ev); !ok {
			t.Fatal("prediction failed")
		}
	})
	if allocs != 0 {
		t.Errorf("fail prediction allocates %.1f times per run, want 0", allocs)
	}
}

// TestAllocsDeliverPrediction: a delivery the transition cache has not seen
// allocates nothing beyond the protocol's own Receive callback (which boxes
// its returned state) and that state's digest, and one it has seen
// allocates nothing. The fingerprint arithmetic itself is allocation-free.
func TestAllocsDeliverPrediction(t *testing.T) {
	proto := digestProto{n: 3}
	pr := NewPredictor()
	next := NewConfig(proto, []Bit{Zero, One, One})
	for _, e := range []Event{
		{Proc: 0, Type: SendStepEvent}, // sends to p1
		{Proc: 1, Type: SendStepEvent}, // moves p1 into its receiving phase
	} {
		if err := next.ApplyInPlace(proto, e); err != nil {
			t.Fatal(err)
		}
	}
	next.Fingerprint()
	ev := Event{Proc: 1, Type: Deliver, Msg: MsgID{From: 0, To: 1, Seq: 1}}
	m, ok := next.Buffers[1].Find(ev.Msg)
	if !ok {
		t.Fatal("message not buffered")
	}
	baseline := testing.AllocsPerRun(200, func() {
		StateDigest(proto.Receive(1, next.States[1], m))
	})
	predict := func() {
		if _, ok := pr.Predict(proto, next, ev); !ok {
			t.Fatal("prediction failed")
		}
	}
	cold := testing.AllocsPerRun(200, func() {
		clear(pr.memo)
		predict()
	})
	if cold > baseline {
		t.Errorf("deliver prediction allocates %.1f times per run, want ≤ %.1f (the Receive callback baseline)", cold, baseline)
	}
	if warm := testing.AllocsPerRun(200, predict); warm != 0 {
		t.Errorf("remembered deliver prediction allocates %.1f times per run, want 0", warm)
	}
}

// TestAllocsBufferInto: AddInto and RemoveMsgInto with a warm destination
// are allocation-free on memoized messages.
func TestAllocsBufferInto(t *testing.T) {
	var b Buffer
	for i := 1; i <= 6; i++ {
		b = b.Add(Message{ID: MsgID{From: 0, To: 1, Seq: i}, Payload: dpPayload{bit: Bit(i % 2)}}.Memoized())
	}
	extra := Message{ID: MsgID{From: 2, To: 1, Seq: 1}, Payload: dpPayload{bit: One}}.Memoized()
	addDst := make(Buffer, 0, len(b)+1)
	allocs := testing.AllocsPerRun(200, func() {
		addDst = b.AddInto(addDst, extra)
	})
	if allocs != 0 {
		t.Errorf("AddInto allocates %.1f times per run, want 0", allocs)
	}
	victim := b[3]
	rmDst := make(Buffer, 0, len(b))
	allocs = testing.AllocsPerRun(200, func() {
		out, ok := b.RemoveMsgInto(rmDst, victim)
		if !ok {
			t.Fatal("remove failed")
		}
		rmDst = out[:0]
	})
	if allocs != 0 {
		t.Errorf("RemoveMsgInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestAllocsAppendEnabled: enumerating enabled events into a reused
// scratch slice is allocation-free.
func TestAllocsAppendEnabled(t *testing.T) {
	proto := digestProto{n: 3}
	c := NewConfig(proto, []Bit{Zero, One, One})
	for p := 0; p < 3; p++ {
		var err error
		c, _, err = Apply(proto, c, Event{Proc: ProcID(p), Type: SendStepEvent})
		if err != nil {
			t.Fatal(err)
		}
	}
	scratch := make([]Event, 0, 16)
	allocs := testing.AllocsPerRun(200, func() {
		scratch = AppendEnabled(scratch[:0], c)
	})
	if allocs != 0 {
		t.Errorf("AppendEnabled allocates %.1f times per run, want 0", allocs)
	}
	if len(scratch) == 0 {
		t.Fatal("no enabled events found")
	}
}
