// Package netx is the byte mesh underneath the distributed live runtime:
// one TCP connection per directed process pair, carrying opaque payloads
// with per-link sequencing, cumulative acks, bounded outbound queues,
// keepalive, and a seeded link-fault injector above the sockets.
//
// The package knows nothing about messages, processors, or protocols —
// payloads are opaque byte slices — so it imports only the standard
// library and the runtime layers above it stay free to change their codec.
//
// Delivery contract: Send(to, payload) enqueues the payload on the
// directed link self→to. The link assigns it a sequence number and
// delivers it to the peer's OnFrame exactly once, in per-link order,
// across any number of connection failures, resets, and reconnections —
// the sender replays everything above the receiver's last cumulative ack
// after every redial, and the receiver discards already-seen sequence
// numbers. A frame is acked only after OnFrame has returned for it, so
// Pending counts it until the receiver owns it. Send blocks when the link's
// outbound queue is full (backpressure), never spawning per-payload
// goroutines.
package netx

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes one mesh node. The zero value of every field gets a
// sensible default.
type Config struct {
	// Self is this process's id in the mesh.
	Self int
	// QueueCap bounds each directed link's outbound queue (enqueued but
	// unacked payloads); Send blocks when the queue is full. Default 1024.
	QueueCap int
	// Keepalive is the idle interval after which a link sends a ping, so
	// healthy links are never silent. Default 250ms.
	Keepalive time.Duration
	// KeepaliveTimeout is how long an inbound link may be silent before
	// the receiver declares it down, fires OnPeerDown, and drops the
	// connection. Default 1s.
	KeepaliveTimeout time.Duration
	// PartitionInterval is the wall length of one fault-plan interval.
	// Default 500ms.
	PartitionInterval time.Duration
	// Faults schedules link faults; the zero plan injects nothing.
	Faults LinkFaultPlan
	// OnFrame receives each delivered payload exactly once, in per-link
	// order, from the receiving connection's goroutine, which holds the
	// link's inbox meanwhile: it must not block on the mesh. Required.
	OnFrame func(from int, payload []byte)
	// OnAck is called, from the outbound link's ack reader, when the peer
	// has acked n more payloads: OnFrame has returned for each of them over
	// there, and Pending no longer counts them. Optional.
	OnAck func(peer, n int)
	// OnPeerDown is called on each keepalive verdict against an inbound
	// link (at most once per connection incarnation). Optional.
	OnPeerDown func(peer int)
}

func (c Config) queueCap() int {
	if c.QueueCap <= 0 {
		return 1024
	}
	return c.QueueCap
}

func (c Config) keepalive() time.Duration {
	if c.Keepalive <= 0 {
		return 250 * time.Millisecond
	}
	return c.Keepalive
}

func (c Config) keepaliveTimeout() time.Duration {
	if c.KeepaliveTimeout <= 0 {
		return time.Second
	}
	return c.KeepaliveTimeout
}

func (c Config) partitionInterval() time.Duration {
	if c.PartitionInterval <= 0 {
		return 500 * time.Millisecond
	}
	return c.PartitionInterval
}

// Stats is a snapshot of a mesh node's link counters.
type Stats struct {
	FramesSent       int64 // data frames written to peer sockets
	FramesResent     int64 // data frames replayed after a reconnect
	Dials            int64 // connection attempts (first dials and redials)
	Reconnects       int64 // re-established links after losing a connection
	Resets           int64 // injected connection resets
	LinkDowns        int64 // keepalive verdicts against inbound links
	SeveredIntervals int64 // (link, interval) pairs observed severed
	HeldFrames       int64 // frames parked while their link was severed or stalled
}

type meshCounters struct {
	framesSent, framesResent, dials, reconnects, resets,
	linkDowns, severedIntervals, heldFrames atomic.Int64
}

func (c *meshCounters) snapshot() Stats {
	return Stats{
		FramesSent:       c.framesSent.Load(),
		FramesResent:     c.framesResent.Load(),
		Dials:            c.dials.Load(),
		Reconnects:       c.reconnects.Load(),
		Resets:           c.resets.Load(),
		LinkDowns:        c.linkDowns.Load(),
		SeveredIntervals: c.severedIntervals.Load(),
		HeldFrames:       c.heldFrames.Load(),
	}
}

// inbox is the persistent receive state of one directed inbound link; it
// survives reconnections so resumed frames dedup correctly.
type inbox struct {
	mu  sync.Mutex // held across OnFrame: deliveries from one peer are serial
	cum uint64     // ccvet:guardedby mu — all data frames ≤ cum delivered, none beyond begun
}

// Mesh is one process's endpoint in the byte mesh.
type Mesh struct {
	cfg      Config
	ln       net.Listener
	start    time.Time // epoch of the fault plan's interval 0
	done     chan struct{}
	counters meshCounters

	mu      sync.Mutex
	links   map[int]*link         // ccvet:guardedby mu — outbound, keyed by peer id
	inboxes map[int]*inbox        // ccvet:guardedby mu — inbound, keyed by peer id
	conns   map[net.Conn]struct{} // ccvet:guardedby mu — live inbound connections
	closed  bool                  // ccvet:guardedby mu

	wg sync.WaitGroup
}

var errMeshClosed = errors.New("netx: mesh closed")

// Listen binds a mesh node on addr (e.g. "127.0.0.1:0") and starts
// accepting inbound links. Outbound links start when SetPeers is called.
func Listen(addr string, cfg Config) (*Mesh, error) {
	if cfg.OnFrame == nil {
		return nil, errors.New("netx: Config.OnFrame is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netx: listen %s: %w", addr, err)
	}
	m := &Mesh{
		cfg:     cfg,
		ln:      ln,
		start:   time.Now(),
		done:    make(chan struct{}),
		links:   make(map[int]*link),
		inboxes: make(map[int]*inbox),
		conns:   make(map[net.Conn]struct{}),
	}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the bound listen address.
func (m *Mesh) Addr() string { return m.ln.Addr().String() }

// SetPeers starts one outbound link per peer (self excluded). It must be
// called exactly once, after every process's listen address is known.
func (m *Mesh) SetPeers(addrs map[int]string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	peers := make([]int, 0, len(addrs))
	for peer := range addrs {
		peers = append(peers, peer)
	}
	sort.Ints(peers)
	for _, peer := range peers {
		if peer == m.cfg.Self {
			continue
		}
		l := newLink(m, peer, addrs[peer])
		m.links[peer] = l
		m.wg.Add(1)
		go l.run()
	}
}

// Send enqueues payload on the directed link self→to, blocking while the
// link's queue is full. Send takes the payload: it is kept, not copied,
// until the peer acks it, so the caller must not write it again.
func (m *Mesh) Send(to int, payload []byte) error {
	m.mu.Lock()
	l, ok := m.links[to]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("netx: no link to peer %d", to)
	}
	return l.send(payload)
}

// Pending returns the number of payloads enqueued but not yet acked across
// all outbound links. (The runtime keeps its own count of them through
// OnAck: distributed quiescence requires zero.)
func (m *Mesh) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := 0
	for _, l := range m.sortedLinks() {
		total += l.pending()
	}
	return total
}

// Stats snapshots the link counters.
func (m *Mesh) Stats() Stats { return m.counters.snapshot() }

// sortedLinks returns the outbound links in peer order. Callers hold m.mu.
//
//ccvet:holds mu
func (m *Mesh) sortedLinks() []*link {
	ids := make([]int, 0, len(m.links))
	for id := range m.links {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*link, len(ids))
	for i, id := range ids {
		out[i] = m.links[id]
	}
	return out
}

// Close tears the node down: the listener stops, every connection closes,
// blocked Sends return errMeshClosed, and all goroutines join.
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.done)
	err := m.ln.Close()
	for _, l := range m.sortedLinks() {
		l.close()
	}
	//ccvet:ignore detrange inbound connections have no ids; close order is immaterial
	for conn := range m.conns {
		_ = conn.Close()
	}
	m.mu.Unlock()
	m.wg.Wait()
	return err
}

// inbox returns (creating on first use) the persistent receive state for
// the inbound link from peer.
func (m *Mesh) inbox(peer int) *inbox {
	m.mu.Lock()
	defer m.mu.Unlock()
	ib, ok := m.inboxes[peer]
	if !ok {
		ib = &inbox{}
		m.inboxes[peer] = ib
	}
	return ib
}

// gate evaluates the fault plan for the link self→to at wall time now: how
// long the writer must hold frames, the interval's state, and its index.
func (m *Mesh) gate(to int, now time.Time) (pause time.Duration, st LinkState, idx int) {
	if !m.cfg.Faults.Enabled() {
		return 0, LinkOK, 0
	}
	interval := m.cfg.partitionInterval()
	idx = int(now.Sub(m.start) / interval)
	st = m.cfg.Faults.State(m.cfg.Self, to, idx)
	boundary := m.start.Add(time.Duration(idx+1) * interval)
	switch st {
	case LinkSevered:
		pause = boundary.Sub(now)
	case LinkStalled:
		if half := boundary.Add(-interval / 2); now.Before(half) {
			pause = half.Sub(now)
		}
	}
	return pause, st, idx
}

// acceptLoop admits inbound connections until the listener closes.
func (m *Mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		//ccvet:ignore golifecycle acceptLoop itself holds a wg slot, so this Add never races a zero-counter Wait
		m.wg.Add(1)
		go m.handle(conn)
	}
}

// handle serves one inbound connection: hello, then data/ping frames, with
// cumulative acks and pongs written back on the same connection. A read
// silence past the keepalive timeout is a link-down verdict.
func (m *Mesh) handle(conn net.Conn) {
	defer m.wg.Done()
	defer conn.Close()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.conns[conn] = struct{}{}
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.conns, conn)
		m.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	var buf, out []byte

	_ = conn.SetReadDeadline(time.Now().Add(m.cfg.keepaliveTimeout()))
	typ, body, buf, err := readWireFrame(r, buf)
	if err != nil || typ != frameHello {
		return
	}
	peer, err := parseHello(body)
	if err != nil {
		return
	}
	ib := m.inbox(peer)

	for {
		_ = conn.SetReadDeadline(time.Now().Add(m.cfg.keepaliveTimeout()))
		typ, body, buf, err = readWireFrame(r, buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !m.isClosed() {
				m.counters.linkDowns.Add(1)
				if m.cfg.OnPeerDown != nil {
					m.cfg.OnPeerDown(peer)
				}
			}
			return
		}
		switch typ {
		case frameData:
			seq, payload, err := parseData(body)
			if err != nil {
				return
			}
			// Delivered inside the inbox's critical section: after a reset a
			// second connection's goroutine can hold the replay of this very
			// frame, and it must neither ack it nor deliver its successor
			// until OnFrame has returned. An ack is the sender's licence to
			// forget the frame, so the receiver has to own it by then.
			ib.mu.Lock()
			gap := seq > ib.cum+1
			if seq == ib.cum+1 {
				m.cfg.OnFrame(peer, append([]byte(nil), payload...))
				ib.cum = seq
			}
			cum := ib.cum
			ib.mu.Unlock()
			if gap {
				// Ordered TCP plus resume-from-ack makes a gap impossible
				// on a healthy link; drop the connection and let the
				// sender resume from the last ack.
				return
			}
			out = appendAck(out[:0], cum)
			if _, err := conn.Write(out); err != nil {
				return
			}
		case framePing:
			out = appendFrame(out[:0], framePong, nil)
			if _, err := conn.Write(out); err != nil {
				return
			}
		default:
			return
		}
	}
}

func (m *Mesh) isClosed() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}
