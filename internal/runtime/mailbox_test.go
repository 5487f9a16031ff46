package runtime

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
)

// mkMsg builds a message and its canonical frame for mailbox tests.
func mkMsg(t *testing.T, from, to sim.ProcID, seq int) (sim.Message, []byte) {
	t.Helper()
	key := fmt.Sprintf("m%d-%d-%d", from, to, seq)
	m := sim.Message{ID: sim.MsgID{From: from, To: to, Seq: seq}, Payload: testPayload(key)}
	frame, err := EncodeFrame(Frame{From: from, To: to, Seq: seq, PayloadKey: key})
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	return m, frame
}

func newTestMailbox(seed int64, dedupOff bool) (*mailbox, *transportCounters) {
	counters := &transportCounters{}
	return newMailbox(seed, dedupOff, newTokens(), counters), counters
}

// TestMailboxAgingBound checks the fair-buffer guarantee under a steady
// stream: however the seeded picks fall, no buffered message is passed
// over more than agingLimit + B times when B messages are buffered, so no
// message starves.
func TestMailboxAgingBound(t *testing.T) {
	for _, seed := range []int64{1, 2, 1984} {
		mb, _ := newTestMailbox(seed, false)
		const buffered = 4
		const rounds = 500
		born := make(map[sim.MsgID]int) // pop index at which the message was buffered
		next := 1
		feed := func(at int) {
			m, frame := mkMsg(t, 0, 1, next)
			next++
			mb.deliver(frame, m, uint64(next))
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
		mb, _ := newTestMailbox(seed, false)
		var got []sim.MsgID
		next := 1
		for round := 0; round < 200; round++ {
			for k := 0; k < 1+round%4; k++ {
				m, frame := mkMsg(t, sim.ProcID(k), 5, next)
				next++
				mb.deliver(frame, m, uint64(next))
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
// failed processors are ignored: frames delivered after close are
// discarded, buffered frames are dropped with their tokens, and tryRecv
// never yields again.
func TestMailboxDeliverAfterClose(t *testing.T) {
	mb, counters := newTestMailbox(7, false)
	m1, f1 := mkMsg(t, 0, 1, 1)
	mb.deliver(f1, m1, 1)
	mb.close()
	if got := mb.work.count(); got != 0 {
		t.Errorf("closed mailbox still holds %d tokens", got)
	}
	m2, f2 := mkMsg(t, 0, 1, 2)
	mb.deliver(f2, m2, 2)
	if _, _, ok := mb.tryRecv(); ok {
		t.Error("tryRecv yielded a message from a closed mailbox")
	}
	if got := mb.work.count(); got != 0 {
		t.Errorf("delivery to a closed mailbox left %d tokens", got)
	}
	if got := counters.garbageFrames.Load(); got != 0 {
		t.Errorf("deliver-after-close counted %d garbage frames; it is a discard, not garbage", got)
	}
}

// TestMailboxGarbageFrameCounted checks the formerly-silent loss path: a
// frame whose bytes do not carry its message's triple is discarded and the
// loss is counted, never dropped quietly.
func TestMailboxGarbageFrameCounted(t *testing.T) {
	mb, counters := newTestMailbox(7, false)
	m, _ := mkMsg(t, 0, 1, 1)
	_, wrongFrame := mkMsg(t, 0, 1, 2) // carries triple (0,1,2), message says (0,1,1)
	mb.deliver(wrongFrame, m, 1)
	if _, _, ok := mb.tryRecv(); ok {
		t.Error("mailbox buffered a frame whose triple mismatches its message")
	}
	mb.deliver([]byte{0xde, 0xad}, m, 2)
	if got := counters.garbageFrames.Load(); got != 2 {
		t.Errorf("garbageFrames = %d, want 2", got)
	}
}

// TestMailboxConcurrentDedup hammers one mailbox with the same message
// from many goroutines: exactly one copy may be buffered, however the
// deliveries interleave. Run under -race this also proves the lock
// discipline of deliver/tryRecv.
func TestMailboxConcurrentDedup(t *testing.T) {
	mb, _ := newTestMailbox(11, false)
	const writers = 8
	const perWriter = 200
	const distinct = 10
	msgs := make([]sim.Message, distinct)
	frames := make([][]byte, distinct)
	for i := range msgs {
		msgs[i], frames[i] = mkMsg(t, 0, 1, i+1)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				mb.deliver(frames[i%distinct], msgs[i%distinct], uint64(i+1))
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
	mb, _ := newTestMailbox(11, true)
	m, frame := mkMsg(t, 0, 1, 1)
	for i := 0; i < 3; i++ {
		mb.deliver(frame, m, uint64(i+1))
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
