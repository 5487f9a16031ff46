package protocols

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestProcSetBasics(t *testing.T) {
	var s procSet
	if !s.empty() || s.count() != 0 {
		t.Fatal("zero value should be empty")
	}
	s = s.add(2).add(0).add(5)
	if s.count() != 3 || !s.has(0) || !s.has(2) || !s.has(5) || s.has(1) {
		t.Fatalf("membership wrong: %v", s.members())
	}
	if s.lowest() != 0 {
		t.Fatalf("lowest = %v", s.lowest())
	}
	s = s.del(0)
	if s.lowest() != 2 || s.count() != 2 {
		t.Fatalf("after del: %v", s.members())
	}
	if allProcs(4).contains(s) {
		t.Error("{0..3} must not contain {2,5}: 5 is outside")
	}
	if !allProcs(6).contains(s) {
		t.Error("{0..5} should contain {2,5}")
	}
}

func TestProcSetProperties(t *testing.T) {
	f := func(a, b uint16, shift uint8) bool {
		// Exercise both words of the widened set: sprinkle members across
		// the [0,128) range, not just the low 16 bits.
		off := int(shift) % 112
		var x, y procSet
		for i := 0; i < 16; i++ {
			if a&(1<<uint(i)) != 0 {
				x = x.add(sim.ProcID(i + off))
			}
			if b&(1<<uint(i)) != 0 {
				y = y.add(sim.ProcID(i + off))
			}
		}
		union := x
		for _, p := range y.members() {
			union = union.add(p)
		}
		if !union.contains(x) || !union.contains(y) {
			return false
		}
		if x.count()+y.count() < union.count() {
			return false
		}
		// members round-trips.
		var rebuilt procSet
		for _, p := range x.members() {
			rebuilt = rebuilt.add(p)
		}
		return rebuilt == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTermCoreSoloDecidesImmediately(t *testing.T) {
	// With UP = {self}, every round's receive_all is vacuous and the
	// rounds cascade to completion at construction.
	c := newTermCore(0, 3, true, bit(0))
	if !c.done {
		t.Fatal("solo core should be done immediately")
	}
	if c.decision() != sim.Commit {
		t.Fatal("committable solo core should commit")
	}
	c2 := newTermCore(1, 3, false, bit(1))
	if c2.decision() != sim.Abort {
		t.Fatal("noncommittable solo core should abort")
	}
}

func TestTermCoreTwoProcExchange(t *testing.T) {
	// Two processors, one committable: the committable bias spreads and
	// both decide commit after n rounds.
	n := 3
	up := allProcs(2)
	a := newTermCore(0, n, true, up)
	b := newTermCore(1, n, false, up)
	for round := 0; round < 2*n+2 && !(a.done && b.done); round++ {
		for !a.sending() && !b.sending() && !(a.done && b.done) {
			t.Fatalf("deadlock at round %d: a=%s b=%s", round, a.key(), b.key())
		}
		if a.sending() {
			var env sim.Envelope
			a, env = a.sendStep()
			if tm, ok := env.Payload.(termMsg); ok {
				b = b.onTermMsg(0, tm)
			}
		}
		if b.sending() {
			var env sim.Envelope
			b, env = b.sendStep()
			if tm, ok := env.Payload.(termMsg); ok {
				a = a.onTermMsg(1, tm)
			}
		}
	}
	if !a.done || !b.done {
		t.Fatalf("cores did not finish: a=%s b=%s", a.key(), b.key())
	}
	if a.decision() != sim.Commit || b.decision() != sim.Commit {
		t.Fatalf("decisions: a=%s b=%s (committable bias should spread)", a.decision(), b.decision())
	}
}

func TestTermCoreIgnoresStaleRounds(t *testing.T) {
	// A committable message from an earlier round must not flip the bias:
	// the receive_all accepts "messages from this round only".
	up := allProcs(3)
	c := newTermCore(0, 3, false, up)
	// Drain round-1 broadcast.
	for c.sending() {
		c, _ = c.sendStep()
	}
	// Receive both round-1 messages, advance to round 2, drain it, and
	// reach round 3 via round-2 messages.
	c = c.onTermMsg(1, termMsg{Round: 1})
	c = c.onTermMsg(2, termMsg{Round: 1})
	for c.sending() {
		c, _ = c.sendStep()
	}
	c = c.onTermMsg(1, termMsg{Round: 2})
	c = c.onTermMsg(2, termMsg{Round: 2})
	for c.sending() {
		c, _ = c.sendStep()
	}
	if c.round != 3 {
		t.Fatalf("round = %d, want 3", c.round)
	}
	// A stale round-1 committable arrives late: ignored entirely.
	c = c.onTermMsg(1, termMsg{Round: 1, Committable: true})
	if c.bias {
		t.Fatal("stale committable message must not flip the bias")
	}
}

func TestTermCoreEvidenceGuard(t *testing.T) {
	up := allProcs(2)
	c := newTermCore(0, 2, false, up)
	// Round 1: evidence is accepted before the final round's broadcast
	// completes.
	c = c.onEvidence()
	if !c.bias {
		t.Fatal("evidence should be adopted at round 1")
	}

	d := newTermCore(1, 2, false, up)
	for d.sending() {
		d, _ = d.sendStep()
	}
	d = d.onTermMsg(0, termMsg{Round: 1})
	for d.sending() {
		d, _ = d.sendStep()
	}
	// d is now at round 2 (= n) with its broadcast done: late evidence
	// must be ignored, or another survivor could abort while d commits.
	if d.round != 2 || d.sending() {
		t.Fatalf("setup wrong: %s", d.key())
	}
	d = d.onEvidence()
	if d.bias {
		t.Fatal("evidence after the final broadcast must be ignored")
	}
}

func TestTermCoreEarlyMessagesBuffered(t *testing.T) {
	up := allProcs(2)
	c := newTermCore(0, 3, false, up)
	// A round-2 message arrives while still broadcasting round 1.
	for c.sending() {
		c, _ = c.sendStep()
	}
	c = c.onTermMsg(1, termMsg{Round: 2, Committable: true})
	if c.round != 1 {
		t.Fatal("early message must not advance the round")
	}
	if c.bias {
		t.Fatal("early message must not apply before its round")
	}
	c = c.onTermMsg(1, termMsg{Round: 1})
	// Round 1 complete; the buffered round-2 message applies on entry to
	// round 2.
	if c.round != 2 {
		t.Fatalf("round = %d, want 2", c.round)
	}
	if !c.bias {
		t.Fatal("buffered committable should apply at its round")
	}
}

func TestTermCoreRemovalUnblocks(t *testing.T) {
	up := allProcs(3)
	c := newTermCore(0, 3, false, up)
	for c.sending() {
		c, _ = c.sendStep()
	}
	c = c.onTermMsg(1, termMsg{Round: 1})
	if c.round != 1 {
		t.Fatal("still waiting for p2")
	}
	c = c.onRemoved(2)
	if c.round != 2 {
		t.Fatalf("removal of the awaited processor should complete the round; round = %d", c.round)
	}
}

// TestTermCoreEntryOrder holds the two orders in which a failure notice can
// meet an entry into the termination protocol to one core: entering with UP
// and then removing q, or entering with UP already without q. A processor
// meets a failure both ways: fallback.absorb removes a notice's sender
// after entry, and a failure recorded before entry (haltingcommit's
// coordinator during collection) is left out of UP at entry.
func TestTermCoreEntryOrder(t *testing.T) {
	checked := 0
	for n := 1; n <= 4; n++ {
		for self := sim.ProcID(0); int(self) < n; self++ {
			for mask := uint64(0); mask < 1<<uint(n); mask++ {
				up := procSet{lo: mask}
				if !up.has(self) {
					continue
				}
				for _, q := range up.del(self).members() {
					for _, bias := range []bool{false, true} {
						late := newTermCore(self, n, bias, up).onRemoved(q)
						early := newTermCore(self, n, bias, up.del(q))
						if late.key() != early.key() {
							t.Fatalf("n=%d self=%s up=%s q=%s bias=%v: remove after entry %s, before %s",
								n, self, up.members(), q, bias, late.key(), early.key())
						}
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no case checked")
	}
}

// fallbackKey renders a fallback that has entered the termination protocol.
func fallbackKey(f fallback) string { return string(f.appendKey(nil, true)) }

// TestFallbackAbsorb checks the routing every library protocol shares: a
// failure notice and an amnesia announcement both add their sender to
// removed and take it out of UP, a round message reaches the core, and a
// main-protocol message changes nothing.
func TestFallbackAbsorb(t *testing.T) {
	f := fallback{}.enter(0, 3, false)
	notice := f.absorb(sim.Message{ID: sim.MsgID{From: 1, To: 0}, Notice: true})
	amnesic := f.absorb(sim.Message{ID: sim.MsgID{From: 1, To: 0}, Payload: amnesicMsg{}})
	if !notice.removed.has(1) || notice.term.up.has(1) {
		t.Fatalf("a notice from p1 must remove it: %s", fallbackKey(notice))
	}
	if fallbackKey(amnesic) != fallbackKey(notice) {
		t.Fatalf("an amnesia announcement must act as a notice: %s, notice %s", fallbackKey(amnesic), fallbackKey(notice))
	}
	round := f.absorb(sim.Message{ID: sim.MsgID{From: 2, To: 0}, Payload: termMsg{Round: 1, Committable: true}})
	if !round.term.got.has(2) || !round.term.bias || !round.removed.empty() {
		t.Fatalf("a committable round-1 message from p2 must be counted: %s", fallbackKey(round))
	}
	main := f.absorb(sim.Message{ID: sim.MsgID{From: 2, To: 0}, Payload: ackMsg{}})
	if fallbackKey(main) != fallbackKey(f) {
		t.Fatalf("a main-protocol message must leave the fallback as it was: %s, was %s", fallbackKey(main), fallbackKey(f))
	}
}

// TestFallbackClassify checks Figure 2's modification: a halted sender's
// decision removes it, and only a commit counts as committable evidence.
func TestFallbackClassify(t *testing.T) {
	f := fallback{}.enter(0, 3, false)
	for _, d := range []sim.Decision{sim.Commit, sim.Abort} {
		g := f.classify(1, d)
		if !g.removed.has(1) || g.term.up.has(1) {
			t.Fatalf("classify(p1, %s) must remove p1: %s", d, fallbackKey(g))
		}
		if g.term.bias != (d == sim.Commit) {
			t.Fatalf("classify(p1, %s): bias %v", d, g.term.bias)
		}
	}
}

// TestFallbackSettleNeverRevokes checks that settle takes the rounds'
// decision only for an undecided processor, and only once they end.
func TestFallbackSettleNeverRevokes(t *testing.T) {
	solo := fallback{removed: allProcs(3).del(0)}.enter(0, 3, true)
	if !solo.term.done {
		t.Fatalf("a solo fallback should be done at entry: %s", fallbackKey(solo))
	}
	if d := solo.settle(sim.NoDecision); d != sim.Commit {
		t.Fatalf("undecided, committable rounds ended: settle = %s, want commit", d)
	}
	if d := solo.settle(sim.Abort); d != sim.Abort {
		t.Fatalf("decided abort: settle = %s, want abort kept", d)
	}
	if d := (fallback{}).enter(0, 3, true).settle(sim.NoDecision); d != sim.NoDecision {
		t.Fatalf("rounds still running: settle = %s, want no decision", d)
	}
}
