package runtime

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// collector is the run's total-order serialization point. Every node
// reports each step here, under one mutex, *before* applying its effects:
// the order in which the mutex admits events is the run's schedule, and the
// conformance replay re-executes exactly that schedule. The collector also
// mirrors the model's per-channel sequence counters so live messages carry
// the same triples (p, q, k) the simulator would assign, and it is the
// ground truth for which processors have crashed — a record call for a
// crashed processor is refused, so an event is in the schedule if and only
// if it precedes that processor's fail event in the total order.
type collector struct {
	mu  sync.Mutex
	n   int
	sch sim.Schedule // ccvet:guardedby mu
	seq []int        // ccvet:guardedby mu — seq[from*n+to], mirroring sim.Config's channel counters
	// clock is the collector's Lamport clock; ts[i] is the timestamp of
	// sch[i]. In a single-process run the total order already is the mutex
	// admission order and the timestamps are simply 1,2,3…; in a
	// distributed run each group's collector stamps its local events and
	// receives witnesses piggybacked on incoming frames, so merging all
	// groups' schedules by (ts, group, local index) yields a total order
	// consistent with happens-before.
	clock uint64   // ccvet:guardedby mu
	ts    []uint64 // ccvet:guardedby mu — Lamport timestamp per schedule event
	// failed marks crashed processors; refusals below keep the schedule
	// consistent with fail-stop semantics.
	failed []bool // ccvet:guardedby mu
	err    error  // ccvet:guardedby mu

	decisions []sim.Decision // ccvet:guardedby mu
	decidedAt []time.Time    // ccvet:guardedby mu
	crashAt   []time.Time    // ccvet:guardedby mu

	start time.Time
}

func newCollector(n int) *collector {
	return &collector{
		n:         n,
		seq:       make([]int, n*n),
		failed:    make([]bool, n),
		decisions: make([]sim.Decision, n),
		decidedAt: make([]time.Time, n),
		crashAt:   make([]time.Time, n),
		start:     time.Now(),
	}
}

// tick advances the Lamport clock past witness and stamps the current
// event, returning its timestamp. Callers hold co.mu.
//
//ccvet:holds mu
func (co *collector) tick(witness uint64) uint64 {
	if witness > co.clock {
		co.clock = witness
	}
	co.clock++
	co.ts = append(co.ts, co.clock)
	return co.clock
}

// nextSeq allocates the next sequence number from→to, exactly as
// sim.Config does during replay.
//
//ccvet:holds mu
func (co *collector) nextSeq(from, to sim.ProcID) int {
	i := int(from)*co.n + int(to)
	co.seq[i]++
	return co.seq[i]
}

// recordSend admits one sending step: it holds the envelopes to the
// model's send contract (sim.CheckEnvelopes), appends the event, and
// returns the stamped messages for the node to hand to the network. The
// messages are bare: nothing on the live path reads a message's key or
// digest (EncodeMessage asks the payload for its key), so none is computed
// under the mutex every step of the run contends for. ok is
// false if p has crashed or the run already failed; err is non-nil for a
// model-contract violation, which aborts the run.
func (co *collector) recordSend(p sim.ProcID, envs []sim.Envelope) (msgs []sim.Message, ts uint64, ok bool, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.failed[p] || co.err != nil {
		return nil, 0, false, nil
	}
	if err := sim.CheckEnvelopes(p, co.n, envs); err != nil {
		co.err = err
		return nil, 0, false, err
	}
	co.sch = append(co.sch, sim.Event{Proc: p, Type: sim.SendStepEvent})
	ts = co.tick(0)
	msgs = make([]sim.Message, 0, len(envs))
	for _, env := range envs {
		msgs = append(msgs, sim.Message{
			ID:      sim.MsgID{From: p, To: env.To, Seq: co.nextSeq(p, env.To)},
			Payload: env.Payload,
		})
	}
	return msgs, ts, true, nil
}

// recordDeliver admits one delivery event; witness is the Lamport
// timestamp carried by the message's frame, so the delivery is stamped
// after its send. ok is false if p has crashed or the run failed; the node
// must then discard the message unapplied.
func (co *collector) recordDeliver(p sim.ProcID, id sim.MsgID, witness uint64) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.failed[p] || co.err != nil {
		return false
	}
	co.sch = append(co.sch, sim.Event{Proc: p, Type: sim.Deliver, Msg: id})
	co.tick(witness)
	return true
}

// recordOmit admits one omission event: the adversary suppressed the
// delivery of id to p after the transport accepted it. The event enters the
// total order exactly like a delivery — stamped after its send via the
// frame's Lamport witness — so conformance replay removes the message from
// the model buffer without firing Receive. A crashed p refuses the record
// (fail-stop: nothing happens at a crashed processor, and the model's Omit
// is inapplicable to Failed states); the caller must then buffer normally.
func (co *collector) recordOmit(p sim.ProcID, id sim.MsgID, witness uint64) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.failed[p] || co.err != nil {
		return false
	}
	co.sch = append(co.sch, sim.Event{Proc: p, Type: sim.Omit, Msg: id})
	co.tick(witness)
	return true
}

// recordCrash injects a fail-stop failure: it appends the fail event and
// stamps the failure notices failed(p) with the sequence numbers the
// model's atomic fail broadcast would assign at this point in the total
// order. The notices are bare messages, like recordSend's, and are
// returned for the failure detector to hold until its timeout fires — the
// *fact* of the failure is fixed here; *when* survivors learn of it is the
// detector's business.
func (co *collector) recordCrash(p sim.ProcID) (notices []sim.Message, ts uint64, ok bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.failed[p] || co.err != nil {
		return nil, 0, false
	}
	co.failed[p] = true
	co.crashAt[p] = time.Now()
	co.sch = append(co.sch, sim.Event{Proc: p, Type: sim.Fail})
	ts = co.tick(0)
	notices = make([]sim.Message, 0, co.n-1)
	for q := 0; q < co.n; q++ {
		if sim.ProcID(q) == p {
			continue
		}
		notices = append(notices, sim.Message{
			ID:     sim.MsgID{From: p, To: sim.ProcID(q), Seq: co.nextSeq(p, sim.ProcID(q))},
			Notice: true,
		})
	}
	return notices, ts, true
}

// recordDecision notes p's first visible decision and when it was reached.
func (co *collector) recordDecision(p sim.ProcID, d sim.Decision) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.decisions[p] == sim.NoDecision {
		co.decisions[p] = d
		co.decidedAt[p] = time.Now()
	}
}

// isFailed reports ground truth about p; the detector gates on this so a
// slow-but-alive processor is never declared failed.
func (co *collector) isFailed(p sim.ProcID) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.failed[p]
}

// events returns the number of recorded events.
func (co *collector) events() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.sch)
}

// failure returns the recorded model-contract violation, if any.
func (co *collector) failure() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.err
}

// snapshot copies the schedule and per-processor records for the result.
func (co *collector) snapshot() (sim.Schedule, []uint64, []sim.Decision, []time.Time, []time.Time) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return append(sim.Schedule(nil), co.sch...),
		append([]uint64(nil), co.ts...),
		append([]sim.Decision(nil), co.decisions...),
		append([]time.Time(nil), co.decidedAt...),
		append([]time.Time(nil), co.crashAt...)
}
