package runtime

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/protocols"
	"repro/internal/sim"
)

// TestTransportStatsAddCoversEveryField sets every counter of the struct by
// reflection, so a counter added to TransportStats and forgotten in Add
// fails here instead of reading zero in a merged soak summary.
func TestTransportStatsAddCoversEveryField(t *testing.T) {
	var a, b TransportStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("TransportStats.%s is %s: teach Add and this test about it", av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add leaves %s = %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

// waitSettled blocks until the scheduler has settled every accepted message.
func waitSettled(t *testing.T, c *transportCounters) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); c.settled.Load() != c.accepted.Load(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("accepted %d messages, settled %d", c.accepted.Load(), c.settled.Load())
		}
	}
}

// TestSendSchedulerFollowsFaultRolls pins the one fault injector to the pure
// FaultPlan rolls: every message is delivered once per non-dropped attempt
// up to and including the first whose ack is not lost, and the drop and dup
// counters are exactly the rolls that came up on the way. Every attempt of
// a message to processor 7, hosted elsewhere, carries the mesh payload of
// its message and send stamp; every other attempt carries none.
func TestSendSchedulerFollowsFaultRolls(t *testing.T) {
	plan := FaultPlan{Seed: 1984, DropRate: 0.3, DupRate: 0.3}
	const messages = 300
	var (
		mu        sync.Mutex
		delivered = make(map[sim.MsgID]int)
	)
	owner := make([]int, 8)
	owner[7] = 1
	// The group gives Send its owner map; the scheduler's deliver is the test's.
	tr := &transport{g: &Group{cfg: GroupConfig{Owner: owner}}, counters: &transportCounters{}}
	done := make(chan struct{})
	work := newTokens()
	tr.sched = newSendScheduler(plan, tr.counters, work, func(a attempt) {
		if err := checkPayload(a); err != nil {
			t.Error(err)
		}
		mu.Lock()
		delivered[a.m.ID]++
		mu.Unlock()
	}, done)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr.sched.run()
	}()

	want := make(map[sim.MsgID]int)
	var drops, dups int64
	for i := 0; i < messages; i++ {
		m := mkMsg(sim.ProcID(i%5), sim.ProcID(5+i%3), 1+i/15)
		for try := 0; ; try++ {
			if plan.drop(m.ID, try) {
				drops++
				continue
			}
			want[m.ID]++
			if !plan.dup(m.ID, try) {
				break
			}
			dups++
		}
		tr.Send(m, uint64(i))
	}
	waitSettled(t, tr.counters)
	close(done)
	wg.Wait()

	if len(want) != messages {
		t.Fatalf("test bug: %d distinct message ids, want %d", len(want), messages)
	}
	if drops == 0 || dups == 0 {
		t.Fatalf("fault plan never fired (%d drops, %d dups): the test pins nothing", drops, dups)
	}
	for id, n := range want {
		if delivered[id] != n {
			t.Errorf("message %v delivered %d times, the rolls predict %d", id, delivered[id], n)
		}
	}
	st, inflight := tr.counters.snapshot(), work.count()
	if st.Drops != drops || st.Dups != dups {
		t.Errorf("counted %d drops and %d dups, the rolls predict %d and %d", st.Drops, st.Dups, drops, dups)
	}
	if st.Accepted != messages || st.Settled != st.Accepted || inflight != 0 {
		t.Errorf("accepted %d, settled %d, in flight %d; want %d, %d, 0", st.Accepted, st.Settled, inflight, messages, messages)
	}
}

// checkPayload holds an attempt's payload to its message: nil for a local
// destination (0 to 6), and for processor 7 the attempt's send stamp
// followed by the message's frame.
func checkPayload(a attempt) error {
	if a.m.ID.To != 7 {
		if a.payload != nil {
			return fmt.Errorf("local message %v carries a %d-byte payload", a.m.ID, len(a.payload))
		}
		return nil
	}
	frame, err := EncodeMessage(a.m)
	if err != nil {
		return err
	}
	if want := append(binary.BigEndian.AppendUint64(nil, a.ts), frame...); !bytes.Equal(a.payload, want) {
		return fmt.Errorf("remote message %v carries payload %x, want %x", a.m.ID, a.payload, want)
	}
	return nil
}

// TestAttemptHeapPopsInOrder holds the scheduler's heap to a reference
// that scans for the earliest due time: under interleaved pushes and pops,
// with due times drawn from a narrow range so that ties are common, every
// pop returns an attempt due when the scan's is, and draining what is left
// yields the sorted due times. Each attempt is popped exactly once.
func TestAttemptHeapPopsInOrder(t *testing.T) {
	var h attemptHeap
	var ref []int64
	popped := map[uint64]bool{}
	x := uint64(611)
	roll := func(n uint64) int64 {
		x = fingerprint.Mix64(x + 0x9e3779b97f4a7c15)
		return int64(x % n)
	}
	popRef := func() int64 {
		least := 0
		for i, due := range ref {
			if due < ref[least] {
				least = i
			}
		}
		due := ref[least]
		ref = append(ref[:least], ref[least+1:]...)
		return due
	}
	pop := func() attempt {
		a := h.pop()
		if popped[a.ts] {
			t.Fatalf("attempt %d popped twice", a.ts)
		}
		popped[a.ts] = true
		return a
	}
	for op := 0; op < 5000; op++ {
		if len(ref) == 0 || roll(3) > 0 {
			a := attempt{due: roll(40), ts: uint64(op)}
			h.push(a)
			ref = append(ref, a.due)
			continue
		}
		if got, want := pop().due, popRef(); got != want {
			t.Fatalf("op %d: popped an attempt due at %d, want %d", op, got, want)
		}
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for i, want := range ref {
		if got := pop().due; got != want {
			t.Fatalf("drain %d: popped an attempt due at %d, the sort has %d", i, got, want)
		}
	}
	if len(h) != 0 {
		t.Fatalf("%d attempts left after the drain", len(h))
	}
}

// TestAcceptedMessageOutlivesItsSender: a crash halts a processor, never
// the message system. The message is accepted, its sender crashes, and only
// then does the scheduler start — it must still reach its buffer.
func TestAcceptedMessageOutlivesItsSender(t *testing.T) {
	proto := protocols.Tree{Procs: 3}
	g, err := StartGroup(GroupConfig{
		Proto:  proto,
		Inputs: []sim.Bit{sim.One, sim.One, sim.One},
		Owner:  make([]int, proto.N()),
	})
	if err != nil {
		t.Fatalf("StartGroup: %v", err)
	}
	m := mkMsg(0, 1, 1)
	g.tr.Send(m, 1)
	g.Crash(0)
	select {
	case <-g.nodes[0].crashed:
	default:
		t.Fatal("Crash left the sender's crashed channel open")
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.tr.sched.run()
	}()
	waitSettled(t, g.tr.counters)
	got, _, ok := g.boxes[1].tryRecv()
	if !ok || got.ID != m.ID {
		t.Fatalf("mailbox of p1 holds %v (ok=%v), want the message its crashed sender had sent", got.ID, ok)
	}
	g.boxes[1].stepDone()
	if res := g.Finish(); res.Transport.Settled != 1 {
		t.Errorf("settled %d messages, want 1", res.Transport.Settled)
	}
}
