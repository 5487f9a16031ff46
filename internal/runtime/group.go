package runtime

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/runtime/netx"
	"repro/internal/sim"
)

// A Group runs one host's slice of a protocol's processors inside one OS
// process — all of them in a one-host run (Run), a contiguous slice under
// a dist coordinator — with local traffic short-circuited through shared
// mailboxes and remote traffic carried as opaque frames over a netx mesh.
// Each group stamps its local total order with the collector's Lamport
// clock; MergeGroups folds the groups' schedules into one global total
// order that replays through ConformStream however many hosts recorded it.

// GroupConfig configures one process's slice of a run.
type GroupConfig struct {
	// Proto is the full protocol; Proto.N() is the global processor count.
	Proto sim.Protocol
	// Inputs is the full input vector.
	Inputs []sim.Bit
	// Host is this process's index in the mesh.
	Host int
	// Owner maps each processor to the host index running it.
	Owner []int
	// Mesh is the established byte mesh between hosts. The group sends on
	// it; inbound frames must be routed to DeliverWire by the mesh owner.
	// Nil when this host owns every processor.
	Mesh *netx.Mesh
	// DecodePayload reconstructs a payload value from its canonical key,
	// for frames that crossed the wire. Injected (rather than imported)
	// so the runtime stays independent of the protocol library. Needed
	// only with a mesh.
	DecodePayload func(key string) (sim.Payload, error)
	// Faults is the message-level fault plan (drops, dups, delays),
	// applied sender-side above the reliable links.
	Faults FaultPlan
	// Heartbeat and DetectTimeout tune the failure detector exactly as in
	// Config.
	Heartbeat     time.Duration
	DetectTimeout time.Duration
}

// GroupStatus is one process's contribution to the quiescence predicate;
// Join aggregates these across hosts and Quiet judges the aggregate.
type GroupStatus struct {
	// Events is the number of locally recorded schedule events.
	Events int `json:"events"`
	// Work is the host's token count (see tokens), the frames still queued
	// or unacked on its outbound links included.
	Work int64 `json:"work"`
	// Epoch numbers the host's busy periods: it moves whenever the token
	// count leaves zero. It is one host's and means nothing once joined.
	Epoch uint32 `json:"epoch,omitempty"`
	// Err is a local model-contract violation, fatal to the run.
	Err string `json:"err,omitempty"`
}

// Quiet is the quiescence predicate: nobody holds a token, so no node is
// running, no message is in flight, buffered or mid-application, and every
// confirmed crash has handed over its notices. It is the live analogue of
// Config.Quiescent — the system has deadlocked in the model's sense, which
// is how weakly terminating protocols terminate. A host that stopped on a
// contract violation is never quiet.
func (s GroupStatus) Quiet() bool { return s.Work == 0 && s.Err == "" }

// IdleSince reports whether the host that reported earlier and now reports s
// did nothing in between: both statuses are quiet and no busy period began.
// Only a token holder takes a token or queues a frame on the mesh, so a host
// idle at both ends of an interval with its epoch unmoved was idle throughout.
func (s GroupStatus) IdleSince(earlier GroupStatus) bool {
	return earlier.Quiet() && s.Quiet() && s.Epoch == earlier.Epoch
}

// Join folds another host's status into the aggregate; the first Err wins.
func (s GroupStatus) Join(o GroupStatus) GroupStatus {
	s.Events += o.Events
	s.Work += o.Work
	s.Epoch = 0
	if s.Err == "" {
		s.Err = o.Err
	}
	return s
}

// GroupResult is one process's share of a finished run.
// Per-processor slices are indexed by global processor id; entries for
// processors hosted elsewhere are zero.
type GroupResult struct {
	Host            int            `json:"host"`
	Schedule        sim.Schedule   `json:"schedule"`
	TS              []uint64       `json:"ts"`
	Decisions       []sim.Decision `json:"decisions"`
	DecidedAtNs     []int64        `json:"decidedAtNs"` // absolute UnixNano; 0 = never decided
	CrashAtNs       []int64        `json:"crashAtNs"`   // absolute UnixNano; 0 = never crashed
	DetectionNs     []int64        `json:"detectionNs"` // crash → notice release, per hosted crash
	FalseSuspicions int            `json:"falseSuspicions"`
	LinkSuspicions  int            `json:"linkSuspicions"`
	Transport       TransportStats `json:"transport"`
}

// tokens is a group's termination detector: one conserved count of
// everything that can still make an event happen on this host. A token is
// held by each hosted node while it is neither blocked on an empty mailbox
// nor exited, by each message from the scheduler's accept until it is
// settled, by each frame queued on the mesh until the peer has acked it, by
// each message a mailbox buffers until its delivery is applied or
// discarded, and by each confirmed crash until the detector has handed its
// notices to Send. A token is only ever taken by a holder of another — a
// hand-off takes the new one before releasing the old — so the count never
// passes through zero while work remains, and once at zero it stays there
// until something from outside the host moves it: one read of zero proves a
// one-host run quiescent. (From outside: Crash, which voids the Watch round
// that fires it, and a frame from a peer, which is why a run over a mesh
// asks for a second wave, Watcher.Confirm; the peer acks the frame only once
// this host holds its token, so the hosts' counts never sum to zero while
// it is on its way. One more take is harmless: a blocked node woken by a
// stale notify retakes its token, finds its mailbox still empty and
// releases it again.)
//
// The count shares one atomic word with an epoch that the take leaving zero
// bumps, so a reader sees both at one instant. Every take returns before the
// thing it vouches for is visible to whoever will release it, so the count
// cannot come back to zero ahead of the bump: two reads of zero at one epoch
// prove that nothing was taken in between (GroupStatus.IdleSince).
type tokens struct {
	state atomic.Uint64 // epoch<<32 | count
	// wake gets a non-blocking send from the release that reaches zero.
	wake chan struct{}
}

func newTokens() *tokens { return &tokens{wake: make(chan struct{}, 1)} }

func (t *tokens) take(k int) {
	if uint32(t.state.Add(uint64(k))) == uint32(k) {
		t.state.Add(1 << 32)
	}
}

func (t *tokens) release() {
	if uint32(t.state.Add(^uint64(0))) == 0 {
		t.nudge()
	}
}

func (t *tokens) nudge() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// read returns the epoch and the count as they were at one instant. A
// negative count is a release without a take: a bug, and never quiet.
func (t *tokens) read() (epoch uint32, n int64) {
	v := t.state.Load()
	return uint32(v >> 32), int64(int32(uint32(v)))
}

// Group runs the hosted slice of processors. Construction wires everything
// but starts nothing; Start launches the node goroutines (after the
// coordinator's barrier, if there is one), and Finish tears the group down
// and snapshots its share of the run.
type Group struct {
	cfg     GroupConfig
	n       int
	col     *collector
	det     *detector
	tr      *transport
	boxes   map[sim.ProcID]*mailbox
	nodes   map[sim.ProcID]*node
	hosted  []sim.ProcID // owned processors in ascending order
	work    *tokens
	done    chan struct{}
	started bool
	wg      sync.WaitGroup
}

// StartGroup builds a group for every processor p with Owner[p] == Host.
// Nodes do not step until Start is called.
func StartGroup(cfg GroupConfig) (*Group, error) {
	n := cfg.Proto.N()
	if len(cfg.Inputs) != n || len(cfg.Owner) != n {
		return nil, fmt.Errorf("runtime: group wants %d inputs and owners, got %d and %d", n, len(cfg.Inputs), len(cfg.Owner))
	}
	g := &Group{
		cfg:   cfg,
		n:     n,
		col:   newCollector(n),
		boxes: make(map[sim.ProcID]*mailbox),
		nodes: make(map[sim.ProcID]*node),
		work:  newTokens(),
		done:  make(chan struct{}),
	}
	counters := &transportCounters{}
	for p := 0; p < n; p++ {
		if cfg.Owner[p] != cfg.Host {
			continue
		}
		pid := sim.ProcID(p)
		g.hosted = append(g.hosted, pid)
		mb := newMailbox(int64(fingerprint.Mix64(uint64(cfg.Faults.Seed)^uint64(p)+1)), cfg.Faults.DisableDedup, g.work)
		mb.omit = omitHook(cfg.Faults, pid, g.col, counters)
		g.boxes[pid] = mb
	}
	if len(g.hosted) < n && (cfg.Mesh == nil || cfg.DecodePayload == nil) {
		return nil, fmt.Errorf("runtime: a group with remote processors needs a mesh and a payload decoder")
	}
	g.tr = newTransport(g, counters)
	g.det = newDetector(n, g.col, g.tr, g.work, cfg.Heartbeat, cfg.DetectTimeout)
	for p := 0; p < n; p++ {
		if cfg.Owner[p] != cfg.Host {
			// Remote processors are not this detector's business: their
			// own host watches their heartbeats.
			g.det.markExited(sim.ProcID(p))
			continue
		}
		pid := sim.ProcID(p)
		g.nodes[pid] = &node{
			p:       pid,
			proto:   cfg.Proto,
			state:   cfg.Proto.Init(pid, cfg.Inputs[p], n),
			mb:      g.boxes[pid],
			net:     g.tr,
			col:     g.col,
			det:     g.det,
			work:    g.work,
			crashed: make(chan struct{}),
			done:    g.done,
		}
	}
	return g, nil
}

// Start launches the hosted nodes, the fault scheduler, and the local
// detector loop. Call exactly once, after every group in the run is built.
func (g *Group) Start() {
	if g.started {
		return
	}
	g.started = true
	now := time.Now().UnixNano()
	for _, p := range g.hosted {
		g.det.lastBeat[p].Store(now)
	}
	g.work.take(len(g.hosted)) // every node starts running
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.tr.sched.run()
	}()
	g.wg.Add(1)
	go g.pollLoop()
	for _, p := range g.hosted {
		g.wg.Add(1)
		go func(nd *node) {
			defer g.wg.Done()
			nd.loop()
		}(g.nodes[p])
	}
}

// pollLoop drives the local failure detector while the run lasts.
func (g *Group) pollLoop() {
	defer g.wg.Done()
	t := time.NewTicker(pollInterval)
	defer t.Stop()
	for {
		select {
		case <-g.done:
			return
		case <-t.C:
			g.det.poll()
		}
	}
}

// DeliverWire routes one mesh payload — the send event's Lamport timestamp
// followed by the message frame — into the destination's mailbox. It is the
// runtime's one decoder of bytes from outside the process: anything that
// does not parse, names a sender outside the run, or names a destination
// not hosted here is counted as a garbage frame, never silently dropped and
// never handed to a node.
func (g *Group) DeliverWire(payload []byte) {
	if len(payload) < 8 {
		g.tr.counters.garbageFrames.Add(1)
		return
	}
	f, err := DecodeFrame(payload[8:])
	if err != nil || f.From < 0 || int(f.From) >= g.n {
		g.tr.counters.garbageFrames.Add(1)
		return
	}
	mb := g.boxes[f.To]
	if mb == nil {
		g.tr.counters.garbageFrames.Add(1)
		return
	}
	m := sim.Message{ID: f.ID(), Notice: f.Notice}
	if !f.Notice {
		p, err := g.cfg.DecodePayload(f.PayloadKey)
		if err != nil {
			g.tr.counters.garbageFrames.Add(1)
			return
		}
		m.Payload = p
	}
	mb.deliver(m, binary.BigEndian.Uint64(payload[:8]))
}

// FramesAcked releases the tokens of n frames this group queued on the mesh:
// the peer has acked them, so its mailboxes hold tokens for what they carried.
func (g *Group) FramesAcked(n int) {
	for ; n > 0; n-- {
		g.work.release()
	}
}

// NoteLinkDown forwards a mesh keepalive verdict to the failure detector
// as suspicion-only evidence.
func (g *Group) NoteLinkDown() { g.det.noteLinkDown() }

// Crash injects a fail-stop failure on a hosted processor.
func (g *Group) Crash(p sim.ProcID) {
	nd := g.nodes[p]
	if nd == nil {
		return
	}
	notices, ts, ok := g.col.recordCrash(p)
	if !ok {
		return
	}
	g.work.take(1) // held until the detector hands the notices to Send
	g.det.markCrashed(p, notices, ts, time.Now())
	close(nd.crashed)
	g.boxes[p].close()
}

// Wake is signalled whenever the group's token count reaches zero, so a
// Watch (or a joiner's status push) need not wait for its next tick.
func (g *Group) Wake() <-chan struct{} { return g.work.wake }

// Nudge signals Wake from outside: a dist coordinator calls it when a
// joiner's status arrives, so its Watch looks again at once.
func (g *Group) Nudge() { g.work.nudge() }

// Status snapshots the group's contribution to the quiescence predicate:
// the token count before the event count, which is final once the work is
// zero.
func (g *Group) Status() GroupStatus {
	var st GroupStatus
	st.Epoch, st.Work = g.work.read()
	st.Events = g.col.events()
	if err := g.col.failure(); err != nil {
		st.Err = err.Error()
	}
	return st
}

// Finish stops the group and returns its share of the run. The mesh is the
// caller's to close (after every group has reported).
func (g *Group) Finish() *GroupResult {
	close(g.done)
	g.wg.Wait()
	sched, ts, decisions, decidedAt, crashAt := g.col.snapshot()
	latencies, falseSusp, linkSusp := g.det.stats()
	res := &GroupResult{
		Host:            g.cfg.Host,
		Schedule:        sched,
		TS:              ts,
		Decisions:       decisions,
		DecidedAtNs:     make([]int64, g.n),
		CrashAtNs:       make([]int64, g.n),
		DetectionNs:     make([]int64, g.n),
		FalseSuspicions: falseSusp,
		LinkSuspicions:  linkSusp,
		Transport:       g.tr.Stats(),
	}
	for p := 0; p < g.n; p++ {
		if !decidedAt[p].IsZero() {
			res.DecidedAtNs[p] = decidedAt[p].UnixNano()
		}
		if !crashAt[p].IsZero() {
			res.CrashAtNs[p] = crashAt[p].UnixNano()
		}
		if d, ok := latencies[sim.ProcID(p)]; ok {
			res.DetectionNs[p] = int64(d)
		}
	}
	return res
}
