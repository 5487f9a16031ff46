package runtime

import (
	"time"

	"repro/internal/sim"
)

// node runs one processor: a goroutine driving the protocol's pure δ/β
// transition functions against live state. The loop mirrors the model's
// step alternation exactly — sending states take sending steps, receiving
// states block on the mailbox — and every step is admitted by the
// collector *before* its effects happen, so the recorded total order is a
// legal schedule.
//
// A node holds the only mutable copy of its processor's state and touches
// it from this one goroutine; the protocol's transition functions stay
// pure (ccvet checks them), so all mutation is the two assignments below.
type node struct {
	p     sim.ProcID
	proto sim.Protocol
	state sim.State
	mb    *mailbox
	net   *transport
	col   *collector
	det   *detector
	work  *tokens

	crashed chan struct{} // closed when a crash is injected on p
	done    chan struct{} // closed when the run shuts down
}

// loop is the processor's life: step until halted, crashed, or shut down.
// The node holds one token (taken for it by Start) except while blocked on
// an empty mailbox, and releases it last on exit.
func (nd *node) loop() {
	blocked := false
	defer func() {
		if !blocked {
			nd.work.release()
		}
	}()
	defer nd.det.markExited(nd.p)
	stop := make(chan struct{})
	defer close(stop)
	go nd.heartbeats(stop)

	nd.reportDecision()
	for {
		select {
		case <-nd.crashed:
			return
		case <-nd.done:
			return
		default:
		}
		switch nd.state.Kind() {
		case sim.Sending:
			s2, envs := nd.proto.SendStep(nd.p, nd.state)
			msgs, ts, ok, err := nd.col.recordSend(nd.p, envs)
			if err != nil || !ok {
				return
			}
			nd.state = s2
			nd.reportDecision()
			for _, m := range msgs {
				nd.net.Send(m, ts)
			}
		case sim.Receiving:
			m, witness, ok := nd.mb.tryRecv()
			if !ok {
				blocked = true
				nd.work.release()
				select {
				case <-nd.mb.notify:
					// The delivery that notified still holds its token.
					nd.work.take(1)
					blocked = false
					continue
				case <-nd.crashed:
					return
				case <-nd.done:
					return
				}
			}
			if !nd.col.recordDeliver(nd.p, m.ID, witness) {
				nd.mb.stepDone()
				return
			}
			nd.state = nd.proto.Receive(nd.p, nd.state, m)
			nd.mb.stepDone()
			nd.reportDecision()
		default:
			// Halted (or, impossibly, failed): the processor's role is
			// complete. Close the mailbox — the model ignores the buffers
			// of halted processors.
			nd.mb.close()
			return
		}
	}
}

// reportDecision forwards the state's visible decision, if any, to the
// collector (first decision wins; irrevocability is checked by replay).
func (nd *node) reportDecision() {
	if d, ok := nd.state.Decided(); ok {
		nd.col.recordDecision(nd.p, d)
	}
}

// heartbeats stores a liveness timestamp every beat interval until the
// node exits or crashes. An injected crash stops the heartbeat exactly
// like the modeled processor it kills: silently.
func (nd *node) heartbeats(stop <-chan struct{}) {
	t := time.NewTicker(nd.det.beat)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			nd.det.heartbeat(nd.p)
		case <-stop:
			return
		case <-nd.crashed:
			return
		case <-nd.done:
			return
		}
	}
}
