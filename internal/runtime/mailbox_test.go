package runtime

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
)

// mkMsg builds a message for mailbox and transport tests.
func mkMsg(from, to sim.ProcID, seq int) sim.Message {
	key := fmt.Sprintf("m%d-%d-%d", from, to, seq)
	return sim.Message{ID: sim.MsgID{From: from, To: to, Seq: seq}, Payload: testPayload(key)}
}

func newTestMailbox(seed int64, dedupOff bool) *mailbox {
	return newMailbox(seed, dedupOff, newTokens())
}

// TestMailboxAgingBound checks the fair-buffer guarantee under a steady
// stream: however the seeded picks fall, no buffered message is passed
// over more than agingLimit + B times when B messages are buffered, so no
// message starves.
func TestMailboxAgingBound(t *testing.T) {
	for _, seed := range []int64{1, 2, 1984} {
		mb := newTestMailbox(seed, false)
		const buffered = 4
		const rounds = 500
		born := make(map[sim.MsgID]int) // pop index at which the message was buffered
		next := 1
		feed := func(at int) {
			m := mkMsg(0, 1, next)
			next++
			mb.deliver(m, uint64(next))
			born[m.ID] = at
		}
		for i := 0; i < buffered; i++ {
			feed(0)
		}
		maxWait := 0
		for pop := 1; pop <= rounds; pop++ {
			m, _, ok := mb.tryRecv()
			if !ok {
				t.Fatalf("seed %d: mailbox empty at pop %d", seed, pop)
			}
			mb.stepDone()
			if wait := pop - born[m.ID]; wait > maxWait {
				maxWait = wait
			}
			feed(pop)
		}
		if limit := agingLimit + buffered; maxWait > limit {
			t.Errorf("seed %d: a message waited %d pops, want ≤ %d (agingLimit %d + %d buffered)",
				seed, maxWait, limit, agingLimit, buffered)
		}
	}
}

// TestMailboxSeededOrder: a mailbox's delivery order is a function of its
// seed and what it was fed. Two mailboxes with one seed, fed the same
// deliveries between the same pops, pick the same sequence; a third with
// another seed picks a different one.
func TestMailboxSeededOrder(t *testing.T) {
	picks := func(seed int64) []sim.MsgID {
		mb := newTestMailbox(seed, false)
		var got []sim.MsgID
		next := 1
		for round := 0; round < 200; round++ {
			for k := 0; k < 1+round%4; k++ {
				m := mkMsg(sim.ProcID(k), 5, next)
				next++
				mb.deliver(m, uint64(next))
			}
			for k := 0; k < 1+round%3; k++ {
				m, _, ok := mb.tryRecv()
				if !ok {
					break
				}
				mb.stepDone()
				got = append(got, m.ID)
			}
		}
		return got
	}
	a, b, other := picks(1984), picks(1984), picks(1985)
	if len(a) < 300 {
		t.Fatalf("test bug: %d picks", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two mailboxes with one seed picked different sequences from the same deliveries")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("mailboxes with different seeds picked the same sequence: the seed does not reach the order")
	}
}

// TestMailboxDeliverAfterClose checks the model's rule that the buffers of
// failed processors are ignored: messages delivered after close are
// discarded, buffered messages are dropped with their tokens, and tryRecv
// never yields again.
func TestMailboxDeliverAfterClose(t *testing.T) {
	mb := newTestMailbox(7, false)
	mb.deliver(mkMsg(0, 1, 1), 1)
	mb.close()
	if got := mb.work.count(); got != 0 {
		t.Errorf("closed mailbox still holds %d tokens", got)
	}
	mb.deliver(mkMsg(0, 1, 2), 2)
	if _, _, ok := mb.tryRecv(); ok {
		t.Error("tryRecv yielded a message from a closed mailbox")
	}
	if got := mb.work.count(); got != 0 {
		t.Errorf("delivery to a closed mailbox left %d tokens", got)
	}
}

// TestDeliverWireCountsGarbage feeds the runtime's one decoder of outside
// bytes everything a peer could get wrong: each input is counted as a
// garbage frame and none reaches a mailbox, where a node would step on it.
// A sender outside [0, N) matters most: the protocol's Receive panics on a
// processor id it has no slot for, and nothing recovers a panic in a node's
// goroutine, so one such frame would kill the host. An honest frame, fed
// last, must still get through uncounted.
func TestDeliverWireCountsGarbage(t *testing.T) {
	proto := protocols.Star{Procs: 3}
	g, err := StartGroup(GroupConfig{
		Proto:         proto,
		Inputs:        []sim.Bit{sim.One, sim.One, sim.One},
		Owner:         make([]int, proto.N()),
		DecodePayload: protocols.ParsePayloadKey,
	})
	if err != nil {
		t.Fatalf("StartGroup: %v", err)
	}
	defer g.Finish()
	wire := func(f Frame) []byte {
		frame, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("EncodeFrame(%+v): %v", f, err)
		}
		return append(binary.BigEndian.AppendUint64(nil, 1), frame...)
	}
	honest := Frame{From: 1, To: 0, Seq: 1, PayloadKey: "val1"}
	corrupt := wire(honest)
	corrupt[8] ^= 0xff // the magic byte
	for i, tc := range []struct {
		name    string
		payload []byte
	}{
		{"shorter than the stamp", []byte{0, 0, 0, 1}},
		{"corrupt frame", corrupt},
		{"undecodable payload key", wire(Frame{From: 1, To: 0, Seq: 1, PayloadKey: "no such payload"})},
		{"destination not hosted here", wire(Frame{From: 1, To: 7, Seq: 1, PayloadKey: "val1"})},
		{"sender outside the run", wire(Frame{From: 200, To: 0, Seq: 1, PayloadKey: "val1"})},
	} {
		g.DeliverWire(tc.payload)
		if got := g.tr.counters.garbageFrames.Load(); got != int64(i+1) {
			t.Errorf("%s: garbageFrames = %d, want %d", tc.name, got, i+1)
		}
		if work := g.work.count(); work != 0 {
			t.Errorf("%s: a mailbox took %d tokens for it", tc.name, work)
		}
	}
	g.DeliverWire(wire(honest))
	m, ts, ok := g.boxes[0].tryRecv()
	if !ok || m.ID != honest.ID() || ts != 1 {
		t.Fatalf("honest frame: mailbox of p0 yields %v at %d (ok=%v), want %v at 1", m.ID, ts, ok, honest.ID())
	}
	g.boxes[0].stepDone()
	if got := g.tr.counters.garbageFrames.Load(); got != 5 {
		t.Errorf("the honest frame was counted: garbageFrames = %d, want 5", got)
	}
}

// TestMailboxConcurrentDedup hammers one mailbox with the same message
// from many goroutines: exactly one copy may be buffered, however the
// deliveries interleave. Run under -race this also proves the lock
// discipline of deliver/tryRecv.
func TestMailboxConcurrentDedup(t *testing.T) {
	mb := newTestMailbox(11, false)
	const writers = 8
	const perWriter = 200
	const distinct = 10
	msgs := make([]sim.Message, distinct)
	for i := range msgs {
		msgs[i] = mkMsg(0, 1, i+1)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				mb.deliver(msgs[i%distinct], uint64(i+1))
			}
		}()
	}
	wg.Wait()
	got := 0
	seen := make(map[sim.MsgID]bool)
	for {
		m, _, ok := mb.tryRecv()
		if !ok {
			break
		}
		mb.stepDone()
		if seen[m.ID] {
			t.Errorf("duplicate triple %v survived dedup", m.ID)
		}
		seen[m.ID] = true
		got++
	}
	if got != distinct {
		t.Errorf("%d messages buffered, want %d distinct", got, distinct)
	}
}

// TestMailboxNoDedupKeepsDuplicates is the teeth check for the check
// above: with dedup disabled the duplicates must get through.
func TestMailboxNoDedupKeepsDuplicates(t *testing.T) {
	mb := newTestMailbox(11, true)
	m := mkMsg(0, 1, 1)
	for i := 0; i < 3; i++ {
		mb.deliver(m, uint64(i+1))
	}
	got := 0
	for {
		if _, _, ok := mb.tryRecv(); !ok {
			break
		}
		mb.stepDone()
		got++
	}
	if got != 3 {
		t.Errorf("%d copies buffered with dedup off, want 3", got)
	}
}
