package runtime

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// tokenRig drives an unstarted Group — no node goroutines, no scheduler
// goroutine, no detector loop, so no sockets and no timers — one step at a
// time from the test goroutine, and holds the token count to a census of
// the structures that are supposed to hold tokens.
type tokenRig struct {
	t      *testing.T
	g      *Group
	popped []sim.ProcID // deliveries popped by tryRecv and not yet stepDone
	seq    map[[2]sim.ProcID]int
}

func newTokenRig(t *testing.T, faults FaultPlan) *tokenRig {
	t.Helper()
	proto := protocols.AckCommit{Procs: 4}
	g, err := StartGroup(GroupConfig{Proto: proto, Inputs: make([]sim.Bit, proto.N()), Owner: make([]int, proto.N()), Faults: faults})
	if err != nil {
		t.Fatalf("StartGroup: %v", err)
	}
	return &tokenRig{t: t, g: g, seq: make(map[[2]sim.ProcID]int)}
}

func (t *tokens) count() int64 {
	_, n := t.read()
	return n
}

// live counts the tokens that should exist: one per attempt on the
// scheduler's heap (every unsettled message has exactly one), one per
// buffered message, one per popped delivery, one per undetected crash. The
// nodes never start, so they hold none — the state of a blocked node.
func (r *tokenRig) live() int64 {
	s := r.g.tr.sched
	s.mu.Lock()
	n := len(s.heap)
	s.mu.Unlock()
	for _, mb := range r.g.boxes {
		mb.mu.Lock()
		n += len(mb.msgs)
		mb.mu.Unlock()
	}
	r.g.det.mu.Lock()
	n += len(r.g.det.pending)
	r.g.det.mu.Unlock()
	return int64(n + len(r.popped))
}

func (r *tokenRig) check(step string) {
	r.t.Helper()
	if got, want := r.g.work.count(), r.live(); got != want {
		r.t.Fatalf("after %s: work = %d, but %d tokens are live", step, got, want)
	}
}

// send accepts a fresh message from→to, as a node's sending step would.
func (r *tokenRig) send(from, to sim.ProcID) {
	ch := [2]sim.ProcID{from, to}
	r.seq[ch]++
	m, _ := mkMsg(r.t, from, to, r.seq[ch])
	r.g.tr.Send(m, uint64(r.seq[ch]))
	r.check("send")
}

// attempt executes the scheduler's next attempt, whenever it is due.
func (r *tokenRig) attempt() bool {
	s := r.g.tr.sched
	s.mu.Lock()
	if len(s.heap) == 0 {
		s.mu.Unlock()
		return false
	}
	a := s.heap.pop()
	s.mu.Unlock()
	s.execute(a)
	r.check("attempt")
	return true
}

func (r *tokenRig) recv(p sim.ProcID) bool {
	if _, _, ok := r.g.boxes[p].tryRecv(); !ok {
		return false
	}
	r.popped = append(r.popped, p)
	r.check("tryRecv")
	return true
}

func (r *tokenRig) stepDone() bool {
	if len(r.popped) == 0 {
		return false
	}
	p := r.popped[0]
	r.popped = r.popped[1:]
	r.g.boxes[p].stepDone()
	r.check("stepDone")
	return true
}

// drain settles, delivers and applies everything outstanding.
func (r *tokenRig) drain() {
	for progress := true; progress; {
		progress = r.attempt() || r.stepDone()
		for _, p := range r.g.hosted {
			progress = r.recv(p) || progress
		}
	}
}

// TestTokenConservation: after every step of a seeded random drive the
// token count equals the census of live tokens, and it is zero — with the
// wake signalled — exactly when nothing is outstanding. The fault plans
// cover retransmission (drops and lost acks), receiver omission (accepted,
// never buffered: no token), and duplicates admitted by disabled dedup
// (each copy buffered with a token of its own).
func TestTokenConservation(t *testing.T) {
	plans := []struct {
		name   string
		faults FaultPlan
	}{
		{"drop-dup", FaultPlan{Seed: 1984, DropRate: 0.3, DupRate: 0.3}},
		{"omit", FaultPlan{Seed: 7, DropRate: 0.3, DupRate: 0.3, OmitRate: 0.3}},
		{"no-dedup", FaultPlan{Seed: 11, DropRate: 0.3, DupRate: 0.3, DisableDedup: true}},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			r := newTokenRig(t, tc.faults)
			rng := rand.New(rand.NewSource(tc.faults.Seed))
			n := len(r.g.hosted)
			for i := 0; i < 600; i++ {
				switch rng.Intn(5) {
				case 0, 1:
					from := sim.ProcID(rng.Intn(n))
					r.send(from, (from+1+sim.ProcID(rng.Intn(n-1)))%sim.ProcID(n))
				case 2:
					r.attempt()
				case 3:
					r.recv(sim.ProcID(rng.Intn(n)))
				case 4:
					r.stepDone()
				}
			}
			if r.g.work.count() == 0 {
				t.Fatal("test bug: the random drive left nothing outstanding")
			}
			select {
			case <-r.g.Wake(): // a zero along the way; the census vouched for it
			default:
			}
			r.drain()
			if got := r.g.work.count(); got != 0 {
				t.Fatalf("everything settled and applied, work = %d", got)
			}
			select {
			case <-r.g.Wake():
			default:
				t.Error("the release that reached zero did not signal the wake")
			}
			st := r.g.tr.counters.snapshot()
			if st.Accepted != st.Settled || st.Drops == 0 || st.Dups == 0 {
				t.Errorf("accepted %d, settled %d, %d drops, %d dups: the plan pinned nothing", st.Accepted, st.Settled, st.Drops, st.Dups)
			}
			if tc.faults.OmitRate > 0 && st.Omissions == 0 {
				t.Error("the omission injector never fired")
			}
		})
	}
}

// TestTokenEpochProperty: two reads of zero at one epoch prove that nothing
// was taken in between, whatever the interleaving — the rule the probe wave
// rests on (GroupStatus.IdleSince). Workers take a token, count one unit of
// work while they hold it and let go; a reader that brackets two looks at the
// work counter between two reads of the tokens must see the counter unmoved
// whenever both reads say idle at the same epoch.
func TestTokenEpochProperty(t *testing.T) {
	tk := newTokens()
	var (
		wg   sync.WaitGroup
		work atomic.Int64
		stop atomic.Bool
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				tk.take(1)
				work.Add(1)
				tk.release()
			}
		}()
	}
	idlePairs := 0
	for work.Load() < 300000 {
		e1, n1 := tk.read()
		w1 := work.Load()
		w2 := work.Load()
		e2, n2 := tk.read()
		if n1 != 0 || n2 != 0 || e1 != e2 {
			continue
		}
		idlePairs++
		if w1 != w2 {
			t.Errorf("idle at epoch %d on both reads, yet the work counter moved %d -> %d between them", e1, w1, w2)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if idlePairs == 0 {
		t.Error("the reader never saw two idle reads at one epoch: the property was not exercised")
	}
	if e, n := tk.read(); n != 0 || e == 0 {
		t.Errorf("after the workers left: count %d at epoch %d, want zero at a moved epoch", n, e)
	}
}

// TestTokenCloseAndCrash: closing a mailbox returns the tokens of what it
// had buffered but not the token of a delivery already popped, and a crash
// on a blocked node lifts a zero count to one until the detector has handed
// every notice to the scheduler.
func TestTokenCloseAndCrash(t *testing.T) {
	r := newTokenRig(t, FaultPlan{Seed: 3})
	for seq := 0; seq < 3; seq++ {
		r.send(0, 1)
	}
	for r.attempt() {
	}
	if !r.recv(1) {
		t.Fatal("nothing buffered at p1")
	}
	if got := r.g.work.count(); got != 3 {
		t.Fatalf("two buffered and one popped: work = %d, want 3", got)
	}
	r.g.boxes[1].close()
	r.check("close")
	if got := r.g.work.count(); got != 1 {
		t.Fatalf("close kept %d tokens, want 1: the popped delivery's", got)
	}
	r.send(2, 1) // to the closed mailbox: settled, never buffered
	for r.attempt() {
	}
	r.stepDone()
	if got := r.g.work.count(); got != 0 {
		t.Fatalf("work = %d after the popped delivery was applied, want 0", got)
	}
	<-r.g.Wake()

	r.g.Crash(2)
	r.check("Crash")
	if got := r.g.work.count(); got != 1 {
		t.Fatalf("a confirmed crash at work 0 gives work = %d, want 1", got)
	}
	r.g.det.poll() // p2's heartbeat is fresh: not detected yet
	r.check("early poll")
	if got := r.g.work.count(); got != 1 {
		t.Fatalf("work = %d before detection, want the crash's 1", got)
	}
	r.g.det.lastBeat[2].Store(0) // silent since the epoch
	r.g.det.poll()
	r.check("detecting poll")
	if got, want := r.g.work.count(), int64(len(r.g.hosted)-1); got != want {
		t.Fatalf("work = %d once the notices are accepted, want one per survivor = %d", got, want)
	}
	r.g.det.poll() // detected once: no second release
	r.check("repeat poll")
	r.drain()
	if got := r.g.work.count(); got != 0 {
		t.Fatalf("work = %d after the notices were delivered, want 0", got)
	}
}

// TestTokenQuiescenceProperty: whatever a seeded crash, drops and lost acks
// do to a run, a zero token count is quiescence in the model's sense — every
// run Watch ends on one read of zero replays to a quiescent final
// configuration with every accepted message settled and no divergence. The
// runs mostly wait on detection and backoff timers, so four go at a time.
func TestTokenQuiescenceProperty(t *testing.T) {
	proto := protocols.AckCommit{Procs: 6}
	prob := problem(taxonomy.WT, taxonomy.TC)
	type plan struct {
		inputs []sim.Bit
		cfg    Config
	}
	rng := rand.New(rand.NewSource(1984))
	plans := make(chan plan, 200) // every plan is queued before the workers start
	for run := 0; run < cap(plans); run++ {
		inputs := make([]sim.Bit, proto.N())
		for i := range inputs {
			inputs[i] = sim.Bit(rng.Intn(2))
		}
		plans <- plan{inputs, Config{
			Faults:        FaultPlan{Seed: rng.Int63(), DropRate: 0.3, DupRate: 0.3},
			Failures:      []sim.FailureAt{{Proc: sim.ProcID(rng.Intn(proto.N())), AfterStep: rng.Intn(4 * proto.N())}},
			Heartbeat:     200 * time.Microsecond,
			DetectTimeout: 2 * time.Millisecond,
			Deadline:      30 * time.Second,
		}}
	}
	close(plans)
	var (
		wg      sync.WaitGroup
		crashed atomic.Int64
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pl := range plans {
				res, err := Run(context.Background(), proto, pl.inputs, pl.cfg)
				if err != nil || res.Err != nil || !res.Quiescent {
					t.Errorf("faults %+v, failures %v: setup error %v, run %+v", pl.cfg.Faults, pl.cfg.Failures, err, res)
					continue
				}
				crashed.Add(int64(len(res.Crashes)))
				// The run claims quiescence, so OK() includes the replay's
				// final configuration being quiescent.
				conf, err := ConformStream(res, proto, prob)
				if err != nil {
					t.Errorf("ConformStream: %v", err)
					continue
				}
				if !conf.OK() || conf.Replayed != len(res.Schedule) || res.Transport.Accepted != res.Transport.Settled {
					t.Errorf("faults %+v, failures %v: %d events, replayed %d, accepted %d, settled %d, divergences %v",
						pl.cfg.Faults, pl.cfg.Failures, len(res.Schedule), conf.Replayed,
						res.Transport.Accepted, res.Transport.Settled, conf.Divergences)
				}
			}
		}()
	}
	wg.Wait()
	if crashed.Load() < 100 {
		t.Errorf("only %d of 200 planned crashes fired: the property saw too few", crashed.Load())
	}
}

// treeGroup builds the one-host group of a clean tree(3) run, for the teeth
// checks to tamper with before runGroup starts it.
func treeGroup(t *testing.T) (*Group, sim.Protocol) {
	t.Helper()
	proto := protocols.Tree{Procs: 3}
	g, err := StartGroup(GroupConfig{Proto: proto, Inputs: []sim.Bit{sim.One, sim.One, sim.One}, Owner: make([]int, proto.N())})
	if err != nil {
		t.Fatalf("StartGroup: %v", err)
	}
	return g, proto
}

// TestTokenLeakNeverQuiesces is the first teeth check: a token nobody
// releases keeps the count off zero, so the run ends in the deadline error —
// which names the outstanding work — and never in a false quiescence.
func TestTokenLeakNeverQuiesces(t *testing.T) {
	g, _ := treeGroup(t)
	g.work.take(1)
	res, err := runGroup(context.Background(), g, Config{Deadline: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("runGroup: %v", err)
	}
	if res.Quiescent || res.Err == nil || !strings.Contains(res.Err.Error(), "did not quiesce within 300ms (work 1, events ") {
		t.Fatalf("a leaked token gave quiescent=%v, err %v; want the deadline error reporting work 1", res.Quiescent, res.Err)
	}
}

// TestTokenEarlyReleaseCaughtByReplay is the second: a token released one
// hand-off early — the scheduler settles a message, letting go of its token,
// before any mailbox has taken a token for it — lets the count reach zero
// with the message still undelivered. Watch declares a quiescence the model
// denies, and the conformance replay reports it.
func TestTokenEarlyReleaseCaughtByReplay(t *testing.T) {
	g, proto := treeGroup(t)
	victim := sim.MsgID{From: 1, To: 0, Seq: 1} // a leaf's vote: the root waits for it
	deliver := g.tr.sched.deliver
	g.tr.sched.deliver = func(a attempt) {
		if a.m.ID != victim {
			deliver(a)
		}
	}
	res, err := runGroup(context.Background(), g, Config{Deadline: 10 * time.Second})
	if err != nil {
		t.Fatalf("runGroup: %v", err)
	}
	if !res.Quiescent {
		t.Fatalf("the early release did not open a false zero: %v", res.Err)
	}
	for _, conform := range []func(*Result, sim.Protocol, taxonomy.Problem) (*Conformance, error){conformMaterialized, ConformStream} {
		conf, err := conform(res, proto, problem(taxonomy.WT, taxonomy.TC))
		if err != nil {
			t.Fatalf("conformance: %v", err)
		}
		if len(conf.Divergences) == 0 || conf.Divergences[0].Kind != "quiescence" {
			t.Errorf("divergences %v, want the quiescence divergence first", conf.Divergences)
		}
	}
}
