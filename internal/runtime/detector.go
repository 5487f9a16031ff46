package runtime

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// detector is the heartbeat-based failure detector that implements the
// model's *detectable* fail-stop failures. Every live processor stores a
// heartbeat timestamp on an interval; the detector's hub declares a
// processor failed when its heartbeat has been silent longer than the
// timeout — and then, and only then, releases the failure notices
// failed(p) that the collector stamped at crash time, routing them through
// the normal transport to every survivor.
//
// Timeouts alone cannot distinguish a crashed processor from a slow one
// (that is the FLP obstruction this runtime lives under), so suspicion and
// action are separated: the hub *suspects* on silence, but only *acts*
// when the collector's ground truth confirms an injected crash. A false
// suspicion — a live processor starved past the timeout — is counted and
// reported, never acted on, which keeps the live trace a legal run of the
// model while detection latency remains an honest timeout measurement.
type detector struct {
	col     *collector
	net     *transport
	work    *tokens
	beat    time.Duration
	timeout time.Duration

	lastBeat []atomic.Int64 // UnixNano of each processor's latest heartbeat
	exited   []atomic.Bool  // processor left its loop (halt/quiesce), heartbeats stopped benignly

	mu        sync.Mutex
	pending   map[sim.ProcID]pendingCrash  // ccvet:guardedby mu — stamped notices awaiting detection
	detected  map[sim.ProcID]time.Duration // ccvet:guardedby mu — crash → detection latency
	suspected map[sim.ProcID]bool          // ccvet:guardedby mu
	falseSusp int                          // ccvet:guardedby mu
	linkSusp  int                          // ccvet:guardedby mu — keepalive link-down verdicts from the transport
}

// pendingCrash is a confirmed crash whose notices await the timeout.
type pendingCrash struct {
	notices []sim.Message
	ts      uint64 // Lamport timestamp of the fail event stamping the notices
	at      time.Time
}

// newDetector builds the detector; a non-positive beat or timeout takes the
// default (1ms heartbeats, 15ms of silence before a crash is declared).
func newDetector(n int, col *collector, net *transport, work *tokens, beat, timeout time.Duration) *detector {
	if beat <= 0 {
		beat = time.Millisecond
	}
	if timeout <= 0 {
		timeout = 15 * time.Millisecond
	}
	d := &detector{
		col:       col,
		net:       net,
		work:      work,
		beat:      beat,
		timeout:   timeout,
		lastBeat:  make([]atomic.Int64, n),
		exited:    make([]atomic.Bool, n),
		pending:   make(map[sim.ProcID]pendingCrash),
		detected:  make(map[sim.ProcID]time.Duration),
		suspected: make(map[sim.ProcID]bool),
	}
	now := time.Now().UnixNano()
	for p := range d.lastBeat {
		d.lastBeat[p].Store(now)
	}
	return d
}

// heartbeat records one beat from p.
func (d *detector) heartbeat(p sim.ProcID) {
	d.lastBeat[p].Store(time.Now().UnixNano())
}

// markExited notes that p's loop ended benignly (halted or the run shut
// down); its silence is not suspicious.
func (d *detector) markExited(p sim.ProcID) { d.exited[int(p)].Store(true) }

// markCrashed hands the detector the stamped notices of an injected crash.
// They are released to the transport once the heartbeat timeout expires.
func (d *detector) markCrashed(p sim.ProcID, notices []sim.Message, ts uint64, at time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pending[p] = pendingCrash{notices: notices, ts: ts, at: at}
}

// noteLinkDown records a keepalive verdict from the transport: the link
// toward some peer went silent past the keepalive timeout. Link silence is
// suspicion-only evidence — a partition severs links without crashing
// anybody — so it is counted, never acted on.
func (d *detector) noteLinkDown() {
	d.mu.Lock()
	d.linkSusp++
	d.mu.Unlock()
}

// poll is one detection sweep; the group's pollLoop calls it on every tick.
// For each silent processor: if the collector confirms a crash, the failure
// is declared detected and its notices enter the transport; otherwise the
// silence is a false suspicion, counted once.
func (d *detector) poll() {
	now := time.Now()
	for i := range d.lastBeat {
		p := sim.ProcID(i)
		silent := now.Sub(time.Unix(0, d.lastBeat[i].Load()))
		if silent < d.timeout {
			continue
		}
		if d.col.isFailed(p) {
			d.mu.Lock()
			pc, ok := d.pending[p]
			if ok {
				delete(d.pending, p)
				d.detected[p] = now.Sub(pc.at)
			}
			d.mu.Unlock()
			if ok {
				for _, m := range pc.notices {
					d.net.Send(m, pc.ts)
				}
				d.work.release() // the crash's token; each notice now has its own
			}
			continue
		}
		if d.exited[i].Load() {
			continue
		}
		d.mu.Lock()
		if !d.suspected[p] {
			d.suspected[p] = true
			d.falseSusp++
		}
		d.mu.Unlock()
	}
}

// stats returns detection latencies per crashed processor, the false
// suspicion count, and the link-down suspicion count.
func (d *detector) stats() (map[sim.ProcID]time.Duration, int, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return maps.Clone(d.detected), d.falseSusp, d.linkSusp
}
