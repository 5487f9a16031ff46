package runtime

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/sim"
)

// FaultPlan configures the unreliable link underneath the transport. Every
// fault decision is a pure function of (Seed, message triple, attempt), so
// two runs with the same seed inject the same drops, duplications, and
// delays per delivery attempt even though goroutine interleaving differs.
type FaultPlan struct {
	// Seed keys the per-attempt fault hash.
	Seed int64
	// DropRate is the probability a delivery attempt is lost in transit
	// (the receiver never sees it; the link retransmits after backoff).
	DropRate float64
	// DupRate is the probability the acknowledgement of a *successful*
	// delivery is lost, so the link retransmits a message the receiver
	// already has — the classic at-least-once duplicate that receiver-side
	// dedup must absorb.
	DupRate float64
	// MaxDelay bounds the per-attempt transit latency, drawn uniformly
	// from [0, MaxDelay). Zero means instantaneous links.
	MaxDelay time.Duration
	// DisableDedup turns receiver-side dedup off. Only the conformance
	// teeth-check uses this: with duplicates admitted, live traces record
	// double deliveries the model rejects, and the run must fail.
	DisableDedup bool
	// OmitRate is the probability a message is omission-suppressed at the
	// receiver: accepted after dedup (so retransmissions of the same triple
	// stay absorbed) but never buffered — the receive side of the omission
	// fault class. Unlike DropRate, the loss is permanent and is recorded
	// as an Omit event in the total order, so conformance replay validates
	// it instead of diverging. The verdict is per message, not per attempt.
	OmitRate float64
	// OmitMaxSeq bounds omission suppression to messages with sequence
	// number at most OmitMaxSeq, keeping each link's omission schedule
	// finite and printable (-print-faults). Zero means no bound.
	OmitMaxSeq int
}

// Salts separating the drop, duplicate, and delay decisions of one attempt.
const (
	saltDrop uint64 = 0x9e3779b97f4a7c15
	saltDup  uint64 = 0xbf58476d1ce4e5b9
	saltDel  uint64 = 0x94d049bb133111eb
	saltOmit uint64 = 0xd6e8feb86659fd93
	saltPick uint64 = 0xa0761d6478bd642f
)

// roll returns a deterministic value in [0, 1) for one fault decision.
//
//ccvet:pure
func (fp FaultPlan) roll(salt uint64, id sim.MsgID, attempt int) float64 {
	x := uint64(fp.Seed)
	x = fingerprint.Mix64(x ^ salt)
	x = fingerprint.Mix64(x ^ uint64(id.From)<<40 ^ uint64(id.To)<<20 ^ uint64(id.Seq))
	x = fingerprint.Mix64(x ^ uint64(attempt))
	return float64(x>>11) / float64(1<<53)
}

func (fp FaultPlan) drop(id sim.MsgID, attempt int) bool {
	return fp.DropRate > 0 && fp.roll(saltDrop, id, attempt) < fp.DropRate
}

func (fp FaultPlan) dup(id sim.MsgID, attempt int) bool {
	return fp.DupRate > 0 && fp.roll(saltDup, id, attempt) < fp.DupRate
}

// omit decides whether the receiver omission-suppresses this message. The
// decision is attempt-independent on purpose: every retransmission of one
// triple meets the same verdict, so at-least-once delivery cannot undo an
// omission.
//
//ccvet:pure
func (fp FaultPlan) omit(id sim.MsgID) bool {
	if fp.OmitRate <= 0 {
		return false
	}
	if fp.OmitMaxSeq > 0 && id.Seq > fp.OmitMaxSeq {
		return false
	}
	return fp.roll(saltOmit, id, 0) < fp.OmitRate
}

// RenderOmissions writes the plan's full omission schedule for an n-processor
// run, one line per suppressed (from, to, seq) triple in canonical order.
// The schedule is a pure function of the seed — two runs configured alike
// must render byte-identical schedules — and is finite only because
// OmitMaxSeq bounds the suppressed sequence numbers; with no bound the
// schedule cannot be enumerated and RenderOmissions says so instead.
//
//ccvet:pure
func (fp FaultPlan) RenderOmissions(n int) string {
	if fp.OmitRate <= 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "omissions seed=%d rate=%g maxseq=%d\n", fp.Seed, fp.OmitRate, fp.OmitMaxSeq)
	if fp.OmitMaxSeq <= 0 {
		sb.WriteString("  (unbounded: set OmitMaxSeq to render the finite schedule)\n")
		return sb.String()
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			for seq := 1; seq <= fp.OmitMaxSeq; seq++ {
				id := sim.MsgID{From: sim.ProcID(from), To: sim.ProcID(to), Seq: seq}
				if fp.omit(id) {
					fmt.Fprintf(&sb, "omit %d->%d seq %d\n", from, to, seq)
				}
			}
		}
	}
	return sb.String()
}

func (fp FaultPlan) delay(id sim.MsgID, attempt int) time.Duration {
	if fp.MaxDelay <= 0 {
		return 0
	}
	return time.Duration(fp.roll(saltDel, id, attempt) * float64(fp.MaxDelay))
}

// backoff is the retransmission schedule: exponential from base, capped,
// with deterministic jitter derived from the fault hash.
//
//ccvet:pure
func (fp FaultPlan) backoff(id sim.MsgID, attempt int) time.Duration {
	const (
		base    = 100 * time.Microsecond
		ceiling = 2 * time.Millisecond
	)
	d := base << uint(attempt)
	if d > ceiling || d <= 0 {
		d = ceiling
	}
	jitter := time.Duration(fp.roll(saltDel, id, attempt+1<<16) * float64(d) / 2)
	return d + jitter
}

// TransportStats counts everything the transport did — including the two
// ways a message can vanish without an event in the trace (a remote
// message whose frame failed to encode at Send, a garbage frame discarded
// by Group.DeliverWire), which the cclive soak summary prints as its
// silent-loss line. Both stay zero in a one-host run: a local message is
// never framed, and only frames from another host are decoded. Link-level
// fields stay zero there too, with no mesh.
type TransportStats struct {
	// Accepted counts messages handed to Send.
	Accepted int64 `json:"accepted"`
	// Settled counts accepted messages that reached their mailbox (or
	// were discarded at a closed/deduplicating one).
	Settled int64 `json:"settled"`
	// EncodeFailures counts remote messages Send discarded because their
	// wire frame failed to encode — a silent loss the conformance replay
	// would otherwise have to infer.
	EncodeFailures int64 `json:"encodeFailures"`
	// GarbageFrames counts mesh payloads Group.DeliverWire discarded: too
	// short, corrupt, carrying an undecodable payload key, or naming a
	// sender outside the run or a destination hosted elsewhere.
	GarbageFrames int64 `json:"garbageFrames"`
	// Drops counts seeded in-transit losses of delivery attempts.
	Drops int64 `json:"drops"`
	// Dups counts seeded ack losses (duplicate retransmissions).
	Dups int64 `json:"dups"`
	// Omissions counts messages omission-suppressed at their receiver and
	// recorded as Omit events in the total order.
	Omissions int64 `json:"omissions,omitempty"`

	// FramesSent counts link frames written to peer sockets.
	FramesSent int64 `json:"framesSent,omitempty"`
	// FramesResent counts link frames re-sent after a reconnect resumed
	// per-link sequence state.
	FramesResent int64 `json:"framesResent,omitempty"`
	// Dials counts link connection attempts (first dials and redials).
	Dials int64 `json:"dials,omitempty"`
	// Reconnects counts links that lost an established connection and
	// re-established it.
	Reconnects int64 `json:"reconnects,omitempty"`
	// Resets counts injected connection resets.
	Resets int64 `json:"resets,omitempty"`
	// LinkDowns counts keepalive verdicts: a link declared down after
	// silence exceeded the keepalive timeout.
	LinkDowns int64 `json:"linkDowns,omitempty"`
	// SeveredIntervals counts (link, interval) pairs the fault plan
	// severed; HeldFrames counts frames parked while their link was
	// severed or stalled.
	SeveredIntervals int64 `json:"severedIntervals,omitempty"`
	HeldFrames       int64 `json:"heldFrames,omitempty"`
}

// Add sums o into s field by field (TestTransportStatsAddCoversEveryField
// holds it to every counter of the struct).
func (s *TransportStats) Add(o TransportStats) {
	s.Accepted += o.Accepted
	s.Settled += o.Settled
	s.EncodeFailures += o.EncodeFailures
	s.GarbageFrames += o.GarbageFrames
	s.Drops += o.Drops
	s.Dups += o.Dups
	s.Omissions += o.Omissions
	s.FramesSent += o.FramesSent
	s.FramesResent += o.FramesResent
	s.Dials += o.Dials
	s.Reconnects += o.Reconnects
	s.Resets += o.Resets
	s.LinkDowns += o.LinkDowns
	s.SeveredIntervals += o.SeveredIntervals
	s.HeldFrames += o.HeldFrames
}

// transportCounters is the mutable atomic counter block behind
// TransportStats, shared by a group's transport, its omission hooks and
// DeliverWire.
type transportCounters struct {
	accepted, settled, encodeFailures, garbageFrames, drops, dups, omissions atomic.Int64
}

func (c *transportCounters) snapshot() TransportStats {
	return TransportStats{
		Accepted:       c.accepted.Load(),
		Settled:        c.settled.Load(),
		EncodeFailures: c.encodeFailures.Load(),
		GarbageFrames:  c.garbageFrames.Load(),
		Drops:          c.drops.Load(),
		Dups:           c.dups.Load(),
		Omissions:      c.omissions.Load(),
	}
}

// agingLimit is the fairness bound: a buffered message passed over this
// many times is delivered next, so no message starves however the seeded
// picks fall (the model's fair-buffer guarantee).
const agingLimit = 8

// mailbox is one processor's receive buffer: the live counterpart of the
// model's unordered fair buffer. Delivery order is randomized (seeded) to
// exercise reorderings, dedup keyed by the message triple absorbs
// at-least-once duplicates, and aging enforces fairness. The n-th pick is
// a Mix64 roll over (seed, n) — FaultPlan.roll's idiom — so the generator
// state is two words, and a mailbox costs nothing to seed.
type mailbox struct {
	mu       sync.Mutex
	msgs     []sim.Message      // ccvet:guardedby mu
	tss      []uint64           // ccvet:guardedby mu — Lamport witness carried by each buffered message
	passed   []int              // ccvet:guardedby mu — times each buffered message was passed over
	seen     map[sim.MsgID]bool // ccvet:guardedby mu
	closed   bool               // ccvet:guardedby mu
	dedupOff bool
	seed     uint64 // the delivery-order key, Mix64(seed ^ saltPick)
	draws    uint64 // ccvet:guardedby mu — picks rolled so far; the next pick rolls (seed, draws)
	notify   chan struct{}
	// work holds one token per buffered message, from deliver until the
	// node has recorded and applied the delivery (stepDone) or close
	// discards it.
	work *tokens
	// omit, when non-nil, is the receive-omission injector: consulted after
	// dedup accepts a fresh message, a true return suppresses it —
	// accepted, never buffered. The hook records the Omit event in the
	// total order (or refuses, leaving the message to buffer normally).
	omit func(m sim.Message, ts uint64) bool
}

func newMailbox(seed int64, dedupOff bool, work *tokens) *mailbox {
	return &mailbox{
		seen:     make(map[sim.MsgID]bool),
		dedupOff: dedupOff,
		seed:     fingerprint.Mix64(uint64(seed) ^ saltPick),
		notify:   make(chan struct{}, 1),
		work:     work,
	}
}

// omitHook builds processor p's receive-omission injector for the mailbox,
// or nil when the plan injects no omissions. The hook rolls the seeded
// per-message verdict and, on suppression, records the Omit event in the
// total order; a refused record (p crashed concurrently) lets the message
// buffer normally.
func omitHook(faults FaultPlan, p sim.ProcID, col *collector, counters *transportCounters) func(sim.Message, uint64) bool {
	if faults.OmitRate <= 0 {
		return nil
	}
	return func(m sim.Message, ts uint64) bool {
		if !faults.omit(m.ID) {
			return false
		}
		if !col.recordOmit(p, m.ID, ts) {
			return false
		}
		counters.omissions.Add(1)
		return true
	}
}

// deliver buffers one transported message stamped with the Lamport
// timestamp of its send event. Duplicate triples are absorbed here (unless
// dedup is disabled), and messages for a closed mailbox — a crashed or
// halted processor — are discarded: the model ignores the buffers of failed
// and halted processors.
func (mb *mailbox) deliver(m sim.Message, ts uint64) {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return
	}
	if !mb.dedupOff {
		if mb.seen[m.ID] {
			mb.mu.Unlock()
			return
		}
		mb.seen[m.ID] = true
	}
	if mb.omit != nil && mb.omit(m, ts) {
		// Suppressed after acceptance: dedup already marked the triple seen,
		// so retransmissions of this message stay absorbed and the omission
		// is permanent — the receive-omission fault, not a transient drop.
		mb.mu.Unlock()
		return
	}
	mb.msgs = append(mb.msgs, m)
	mb.tss = append(mb.tss, ts)
	mb.passed = append(mb.passed, 0)
	// Taken under the lock — the node may pop and apply the message the
	// moment it is visible — and before the deliverer releases its own
	// token, so the hand-off never reads as zero.
	mb.work.take(1)
	mb.mu.Unlock()
	select {
	case mb.notify <- struct{}{}:
	default:
	}
}

// tryRecv pops one message if any is buffered. The message keeps its token;
// the node must call stepDone once the delivery is recorded and applied. On
// failure the node blocks on mb.notify.
func (mb *mailbox) tryRecv() (sim.Message, uint64, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed || len(mb.msgs) == 0 {
		return sim.Message{}, 0, false
	}
	m, ts := mb.pick()
	return m, ts, true
}

// pick chooses the next message: uniformly at random, except a message
// passed over agingLimit times is served first. Callers hold mb.mu.
//
//ccvet:holds mu
func (mb *mailbox) pick() (sim.Message, uint64) {
	idx := -1
	for i, age := range mb.passed {
		if age >= agingLimit {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Lemire's multiply-shift maps the 64-bit roll onto [0, len).
		hi, _ := bits.Mul64(fingerprint.Mix64(mb.seed^mb.draws), uint64(len(mb.msgs)))
		idx = int(hi)
		mb.draws++
	}
	m, ts := mb.msgs[idx], mb.tss[idx]
	for i := range mb.passed {
		if i != idx {
			mb.passed[i]++
		}
	}
	last := len(mb.msgs) - 1
	mb.msgs[idx], mb.tss[idx], mb.passed[idx] = mb.msgs[last], mb.tss[last], mb.passed[last]
	mb.msgs = mb.msgs[:last]
	mb.tss = mb.tss[:last]
	mb.passed = mb.passed[:last]
	return m, ts
}

// stepDone releases the token of the popped message.
func (mb *mailbox) stepDone() { mb.work.release() }

// close discards current and future contents, with the tokens of what was
// buffered; the owner halted or crashed. The caller holds a token of its
// own (the halting node's, the crash's).
func (mb *mailbox) close() {
	mb.mu.Lock()
	discarded := len(mb.msgs)
	mb.closed = true
	mb.msgs = nil
	mb.tss = nil
	mb.passed = nil
	mb.mu.Unlock()
	for ; discarded > 0; discarded-- {
		mb.work.release()
	}
}

// transport is the message system underneath a live run: it emulates the
// model's faultless, fair, unordered message system on top of unreliable
// links — at-least-once delivery into the destination's mailbox, upgraded
// to exactly-once by receiver-side dedup. Destinations the group hosts
// short-circuit into their mailboxes; remote ones ride the netx mesh, whose
// reliable links absorb retransmission. Message-level faults (drop, dup,
// delay) are applied sender-side by a single scheduler goroutine over a
// timing heap — never a goroutine per message. The scheduler stops with the
// run, never with a sender: a fail-stop crash halts a processor, not the
// message system, so a message recorded as sent before the crash still
// reaches its buffer.
type transport struct {
	g        *Group
	counters *transportCounters
	sched    *sendScheduler
}

func newTransport(g *Group, counters *transportCounters) *transport {
	t := &transport{g: g, counters: counters}
	t.sched = newSendScheduler(g.cfg.Faults, counters, g.work, t.attemptDeliver, g.done)
	return t
}

// Send accepts a message and hands its delivery schedule to the fault
// scheduler. It never blocks and never fails: from the sender's point of
// view the message system is faultless. lamport is the collector timestamp
// of the send event, carried with the message so a merged schedule
// preserves the happens-before order. A message to a processor hosted here
// stays a sim.Message; one to another host is framed once, here, into the
// mesh payload every attempt sends.
func (t *transport) Send(m sim.Message, lamport uint64) {
	t.counters.accepted.Add(1)
	var payload []byte
	if t.g.cfg.Owner[m.ID.To] != t.g.cfg.Host {
		frame, err := EncodeMessage(m)
		if err != nil {
			// Unencodable messages cannot occur for in-range processors;
			// count the loss so a bug here shows up in run stats, not only
			// as an unexplained conformance divergence.
			t.counters.encodeFailures.Add(1)
			return
		}
		payload = append(binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(frame)), lamport), frame...)
	}
	t.sched.accept(m, payload, lamport)
}

// attemptDeliver performs one non-dropped delivery attempt.
func (t *transport) attemptDeliver(a attempt) {
	if a.payload == nil {
		t.g.boxes[a.m.ID.To].deliver(a.m, a.ts)
		return
	}
	// The frame holds a token of its own from here to the peer's ack
	// (Group.FramesAcked), which the peer writes only once its mailbox holds
	// the message's. Send blocks under backpressure (full link queue); the
	// scheduler tolerates that — at-least-once delivery has no deadline.
	t.g.work.take(1)
	if err := t.g.cfg.Mesh.Send(t.g.cfg.Owner[a.m.ID.To], a.payload); err != nil {
		t.g.work.release() // the mesh is closed: the run is over
	}
}

// Stats merges the message-level counters with the mesh's link counters.
func (t *transport) Stats() TransportStats {
	st := t.counters.snapshot()
	if t.g.cfg.Mesh == nil {
		return st
	}
	ms := t.g.cfg.Mesh.Stats()
	st.FramesSent = ms.FramesSent
	st.FramesResent = ms.FramesResent
	st.Dials = ms.Dials
	st.Reconnects = ms.Reconnects
	st.Resets = ms.Resets
	st.LinkDowns = ms.LinkDowns
	st.SeveredIntervals = ms.SeveredIntervals
	st.HeldFrames = ms.HeldFrames
	return st
}

// ---- The seeded attempt scheduler ----

// attempt is one pending delivery attempt of one message, due at due
// nanoseconds of the monotonic clock after its scheduler started. payload
// is the mesh payload of a message to another host — the send's Lamport
// stamp, 8 bytes big-endian, then the frame — and nil for a local one.
type attempt struct {
	due     int64
	m       sim.Message
	payload []byte
	ts      uint64
	try     int
}

// attemptHeap is a binary min-heap of attempts by due time.
type attemptHeap []attempt

func (h *attemptHeap) push(a attempt) {
	*h = append(*h, a)
	q := *h
	for i := len(q) - 1; i > 0; {
		up := (i - 1) / 2
		if q[up].due <= q[i].due {
			break
		}
		q[i], q[up] = q[up], q[i]
		i = up
	}
}

// pop removes and returns the earliest attempt; the heap must not be empty.
func (h *attemptHeap) pop() attempt {
	q := *h
	top, last := q[0], len(q)-1
	q[0] = q[last]
	q[last] = attempt{} // the spare capacity keeps no message or payload alive
	q = q[:last]
	for i := 0; ; {
		least := 2*i + 1
		if least >= last {
			break
		}
		if r := least + 1; r < last && q[r].due < q[least].due {
			least = r
		}
		if q[i].due <= q[least].due {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// sendScheduler executes every message's delivery attempts from one
// goroutine over a timing heap. Fault decisions are a pure function of
// (seed, message triple, attempt), so two runs with the same message-fault
// seed inject the same drop/dup pattern however many hosts carry them.
type sendScheduler struct {
	faults   FaultPlan
	counters *transportCounters
	work     *tokens // one token per accepted message until it is settled
	deliver  func(attempt)
	done     chan struct{}
	notify   chan struct{}
	start    time.Time // due times count nanoseconds from here

	mu   sync.Mutex
	heap attemptHeap // ccvet:guardedby mu
}

func newSendScheduler(faults FaultPlan, counters *transportCounters, work *tokens, deliver func(attempt), done chan struct{}) *sendScheduler {
	return &sendScheduler{
		faults:   faults,
		counters: counters,
		work:     work,
		deliver:  deliver,
		done:     done,
		notify:   make(chan struct{}, 1),
		start:    time.Now(),
	}
}

// now reads the monotonic clock as nanoseconds since the scheduler started.
func (s *sendScheduler) now() int64 { return int64(time.Since(s.start)) }

// accept enqueues a fresh message's first delivery attempt.
func (s *sendScheduler) accept(m sim.Message, payload []byte, ts uint64) {
	s.work.take(1)
	s.push(attempt{
		due:     s.now() + int64(s.faults.delay(m.ID, 0)),
		m:       m,
		payload: payload,
		ts:      ts,
	})
}

func (s *sendScheduler) push(a attempt) {
	s.mu.Lock()
	s.heap.push(a)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// run is the scheduler goroutine: pop due attempts, apply the seeded fault
// decisions, deliver or reschedule.
func (s *sendScheduler) run() {
	for {
		s.mu.Lock()
		var wait time.Duration = -1
		var a attempt
		ready := false
		if len(s.heap) > 0 {
			if early := s.heap[0].due - s.now(); early <= 0 {
				a = s.heap.pop()
				ready = true
			} else {
				wait = time.Duration(early)
			}
		}
		s.mu.Unlock()
		if ready {
			s.execute(a)
			continue
		}
		if wait < 0 {
			select {
			case <-s.notify:
			case <-s.done:
				return
			}
			continue
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-s.notify:
		case <-s.done:
			t.Stop()
			return
		}
		t.Stop()
	}
}

// execute applies the fault decisions of one due attempt.
func (s *sendScheduler) execute(a attempt) {
	if s.faults.drop(a.m.ID, a.try) {
		s.counters.drops.Add(1)
		s.requeue(a)
		return
	}
	s.deliver(a)
	if s.faults.dup(a.m.ID, a.try) {
		// Ack lost: retransmit a duplicate the receiver's dedup absorbs.
		s.counters.dups.Add(1)
		s.requeue(a)
		return
	}
	s.counters.settled.Add(1)
	s.work.release()
}

// requeue schedules the next attempt after backoff plus transit delay.
func (s *sendScheduler) requeue(a attempt) {
	delay := s.faults.backoff(a.m.ID, a.try)
	a.try++
	a.due = s.now() + int64(delay+s.faults.delay(a.m.ID, a.try))
	s.push(a)
}
