// Package dist runs live executions across several OS processes: a
// coordinator (host 0) and joiners (hosts 1..H-1), each running a
// runtime.Group over a shared netx mesh, stitched together by a JSON-lines
// control plane on one TCP connection per joiner.
//
// A session admits a fixed set of joiners once, then executes any number of
// runs over the standing control connections — each run gets a fresh mesh
// and a fresh group on every host, so per-run fault seeds and link state
// never leak between runs. Control flow:
//
//	joiner → coord   hello                   (once per session)
//	  per run:
//	coord  → joiner  welcome{host, spec}
//	joiner → coord   ready{dataAddr}         (fresh mesh listening)
//	coord  → joiner  peers{addrs}            (all hosts known)
//	joiner → coord   armed                   (group built, mesh wired)
//	coord  → joiner  go{startNs}             (everybody starts together)
//	joiner → coord   status…                 (first wave: pushed whenever the host's work reaches zero, and every 2 ms)
//	coord  → joiner  crash{proc}             (routed failure injections)
//	coord  → joiner  probe{round}            (second wave: every pushed status reads idle)
//	joiner → coord   status{round}           (a fresh look, taken after the probe arrived)
//	coord  → joiner  finish                  (global quiescence or deadline)
//	joiner → coord   report{group result}
//	coord  → joiner  bye                     (run over; next welcome or done)
//	  end of session:
//	coord  → joiner  done                    (joiner exits cleanly)
//
// The coordinator joins the statuses into one and hands them to
// runtime.Watch — the monitor a one-host runtime.Run uses, which fires the
// injections and declares quiescence. The hosts' token counts summing to
// zero (runtime.GroupStatus.Quiet) is not yet that: the sum is of reads
// taken at different instants. So when it is zero the coordinator probes,
// and every host — the coordinator's own after the probes have left — looks
// again. A host whose second look is idle at the epoch of its first took
// nothing in between (runtime.GroupStatus.IdleSince), so if every host is,
// all were idle together at the instant the first probe left, and since a
// frame stays on its sender's count until the receiver holds its token, the
// global count was zero at that instant: quiescent, one round trip after
// the last host went idle. A crash command precedes any later probe on the
// joiner's FIFO control connection, so an injection voids the wave. The
// coordinator then merges the group results by Lamport order
// (runtime.MergeGroups, runtime.Finish) into the Result a one-host run
// returns, ready for the same conformance replay.
package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
	"repro/internal/runtime/netx"
	"repro/internal/sim"
)

// Spec is everything a host needs to run its slice of one distributed
// execution. The coordinator sends it verbatim to every joiner, so all
// hosts derive their fault schedules from the same seeds.
type Spec struct {
	// Proto names the protocol (resolved via Options.Resolve) and N its
	// processor count.
	Proto string `json:"proto"`
	N     int    `json:"n"`
	// Inputs is the full input vector.
	Inputs []sim.Bit `json:"inputs"`
	// Owner maps each processor to its host; hosts must be 0..H-1 with
	// host 0 the coordinator.
	Owner []int `json:"owner"`
	// Faults is the message-level fault plan (drops, dups, delays).
	Faults runtime.FaultPlan `json:"faults"`
	// Links is the link-level fault plan (partitions, stalls, resets).
	Links             netx.LinkFaultPlan `json:"links"`
	PartitionInterval time.Duration      `json:"partitionInterval"`
	// Mesh tuning; zero values take netx defaults.
	QueueCap         int           `json:"queueCap"`
	Keepalive        time.Duration `json:"keepalive"`
	KeepaliveTimeout time.Duration `json:"keepaliveTimeout"`
	// Detector tuning; zero values take runtime defaults.
	Heartbeat     time.Duration `json:"heartbeat"`
	DetectTimeout time.Duration `json:"detectTimeout"`
	// Deadline bounds the run; past it the coordinator collects whatever
	// exists and reports a non-quiescent result.
	Deadline time.Duration `json:"deadline"`
	// Failures is the planned fail-stop injection schedule, fired against
	// the global event count and routed to each victim's host.
	Failures []sim.FailureAt `json:"failures"`
}

// Hosts returns the host count implied by the owner map.
func (s *Spec) Hosts() int {
	h := 0
	for _, o := range s.Owner {
		if o+1 > h {
			h = o + 1
		}
	}
	return h
}

func (s *Spec) validate() error {
	if s.N < 1 || len(s.Inputs) != s.N || len(s.Owner) != s.N {
		return fmt.Errorf("dist: spec wants n=%d with %d inputs and %d owners", s.N, len(s.Inputs), len(s.Owner))
	}
	seen := make(map[int]bool)
	for p, o := range s.Owner {
		if o < 0 {
			return fmt.Errorf("dist: processor %d has negative host %d", p, o)
		}
		seen[o] = true
	}
	for h := 0; h < s.Hosts(); h++ {
		if !seen[h] {
			return fmt.Errorf("dist: host %d owns no processors", h)
		}
	}
	return nil
}

func (s *Spec) deadline() time.Duration {
	if s.Deadline <= 0 {
		return 60 * time.Second
	}
	return s.Deadline
}

// ContiguousOwner assigns n processors to hosts in contiguous slices, the
// standard layout for soaks (processor p goes to host p*hosts/n).
func ContiguousOwner(n, hosts int) []int {
	owner := make([]int, n)
	for p := range owner {
		owner[p] = p * hosts / n
	}
	return owner
}

// Options injects the protocol registry into the control plane, keeping
// this package independent of the protocol library.
type Options struct {
	// Resolve builds the named protocol at size n. Required.
	Resolve func(name string, n int) (sim.Protocol, error)
	// Decode reconstructs a payload from its canonical key. Required.
	Decode func(key string) (sim.Payload, error)
	// Logf, if set, receives progress lines.
	Logf func(format string, args ...any)
	// OnListen, if set, receives the coordinator's bound control address
	// once it is accepting joiners (useful with a ":0" listen address).
	OnListen func(addr string)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Report is a finished distributed run: the merged result plus each host's
// share, for per-host transport diagnostics.
type Report struct {
	Result  *runtime.Result
	PerHost []*runtime.GroupResult
	// Waves counts the probe waves the coordinator sent: one for a run whose
	// hosts went idle once, more when a joined zero did not hold.
	Waves int
}

// ctrl is the one JSON-lines message shape of the control plane; Type
// selects which fields are meaningful.
type ctrl struct {
	Type     string               `json:"type"`
	Host     int                  `json:"host,omitempty"`
	Spec     *Spec                `json:"spec,omitempty"`
	DataAddr string               `json:"dataAddr,omitempty"`
	Peers    map[int]string       `json:"peers,omitempty"`
	StartNs  int64                `json:"startNs,omitempty"`
	Status   *runtime.GroupStatus `json:"status,omitempty"`
	Proc     int                  `json:"proc,omitempty"`
	Round    int                  `json:"round,omitempty"` // probe wave; echoed by the status that answers it
	Report   *runtime.GroupResult `json:"report,omitempty"`
	Err      string               `json:"err,omitempty"`
}

// statusInterval is how often a host pushes its status unprompted. Idleness
// is pushed the moment it happens (Group.Wake); the tick carries the event
// count that failure injections wait for.
const statusInterval = 2 * time.Millisecond

func startMesh(host int, spec *Spec, holder *atomic.Pointer[runtime.Group]) (*netx.Mesh, error) {
	return netx.Listen("127.0.0.1:0", netx.Config{
		Self:              host,
		QueueCap:          spec.QueueCap,
		Keepalive:         spec.Keepalive,
		KeepaliveTimeout:  spec.KeepaliveTimeout,
		PartitionInterval: spec.PartitionInterval,
		Faults:            spec.Links,
		OnFrame: func(_ int, payload []byte) {
			if g := holder.Load(); g != nil {
				g.DeliverWire(payload)
			}
		},
		OnAck: func(_, n int) {
			if g := holder.Load(); g != nil {
				g.FramesAcked(n)
			}
		},
		OnPeerDown: func(int) {
			if g := holder.Load(); g != nil {
				g.NoteLinkDown()
			}
		},
	})
}

func buildGroup(host int, spec *Spec, proto sim.Protocol, mesh *netx.Mesh, decode func(string) (sim.Payload, error)) (*runtime.Group, error) {
	return runtime.StartGroup(runtime.GroupConfig{
		Proto:         proto,
		Inputs:        spec.Inputs,
		Host:          host,
		Owner:         spec.Owner,
		Mesh:          mesh,
		DecodePayload: decode,
		Faults:        spec.Faults,
		Heartbeat:     spec.Heartbeat,
		DetectTimeout: spec.DetectTimeout,
	})
}

// ---- Coordinator ----

// joinerConn is the coordinator's view of one joiner across a session.
type joinerConn struct {
	host int
	conn net.Conn
	enc  *json.Encoder

	mu     sync.Mutex
	status runtime.GroupStatus // ccvet:guardedby mu — latest, pushed or probed
	round  int                 // ccvet:guardedby mu — wave of the latest probe reply
	err    error               // ccvet:guardedby mu — first read error; the session is over
}

func (j *joinerConn) send(m ctrl) error { return j.enc.Encode(m) }

// reset sets the status a host has at the go signal, before it has said
// anything: every processor it owns is running.
func (j *joinerConn) reset(owned int) {
	j.mu.Lock()
	j.status = runtime.GroupStatus{Work: int64(owned)}
	j.mu.Unlock()
}

// Coordinator is a standing distributed session: a fixed set of joiners,
// any number of runs.
type Coordinator struct {
	opts      Options
	ln        net.Listener
	joiners   []*joinerConn
	handshake chan ctrl
	reports   chan *runtime.GroupResult
	// group is the current run's local group: the mesh delivers to it and a
	// joiner's status push nudges its Wake.
	group atomic.Pointer[runtime.Group]
	// round numbers the probe waves of the session; replied gets a
	// non-blocking send whenever a probe is answered or a connection is lost.
	round   int
	replied chan struct{}
	wg      sync.WaitGroup
	closed  bool
}

// NewCoordinator binds the control plane on listenAddr and admits exactly
// `joins` joiner processes (host ids 1..joins in arrival order). It returns
// once every joiner has said hello.
func NewCoordinator(ctx context.Context, listenAddr string, joins int, opts Options) (*Coordinator, error) {
	if opts.Resolve == nil || opts.Decode == nil {
		return nil, fmt.Errorf("dist: Options.Resolve and Options.Decode are required")
	}
	if joins < 0 {
		return nil, fmt.Errorf("dist: negative joiner count %d", joins)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("dist: control listen %s: %w", listenAddr, err)
	}
	c := &Coordinator{
		opts:      opts,
		ln:        ln,
		handshake: make(chan ctrl, joins+1),
		reports:   make(chan *runtime.GroupResult, joins+1),
		replied:   make(chan struct{}, 1),
	}
	if opts.OnListen != nil {
		opts.OnListen(ln.Addr().String())
	}
	opts.logf("control plane on %s, waiting for %d joiner(s)", ln.Addr(), joins)
	for h := 1; h <= joins; h++ {
		conn, err := acceptCtx(ctx, ln)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		j := &joinerConn{host: h, conn: conn, enc: json.NewEncoder(conn)}
		c.joiners = append(c.joiners, j)
		c.wg.Add(1)
		go c.readLoop(j)
	}
	for range c.joiners {
		m, err := next(ctx, c.handshake)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		if m.Type != "hello" {
			_ = c.Close()
			return nil, fmt.Errorf("dist: expected hello, got %q", m.Type)
		}
	}
	return c, nil
}

// Addr returns the bound control address joiners should dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Hosts returns the session's host count (joiners plus the coordinator).
func (c *Coordinator) Hosts() int { return len(c.joiners) + 1 }

// Close ends the session: joiners receive done and exit, connections and
// the listener close.
func (c *Coordinator) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	for _, j := range c.joiners {
		_ = j.send(ctrl{Type: "done"})
		_ = j.conn.Close()
	}
	err := c.ln.Close()
	c.wg.Wait()
	return err
}

// Run executes one distributed run over the standing session and returns
// the merged result. Errors are control-plane failures; a run that merely
// missed its deadline comes back as a Report whose Result.Err says so.
func (c *Coordinator) Run(ctx context.Context, spec Spec) (*Report, error) {
	if c.closed {
		return nil, fmt.Errorf("dist: session closed")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.Hosts() != c.Hosts() {
		return nil, fmt.Errorf("dist: spec spans %d hosts, session has %d", spec.Hosts(), c.Hosts())
	}
	proto, err := c.opts.Resolve(spec.Proto, spec.N)
	if err != nil {
		return nil, err
	}
	if proto.N() != spec.N {
		return nil, fmt.Errorf("dist: protocol %s has %d processors, spec says %d", spec.Proto, proto.N(), spec.N)
	}

	// Handshake: fresh mesh + group on every host.
	defer c.group.Store(nil)
	mesh, err := startMesh(0, &spec, &c.group)
	if err != nil {
		return nil, err
	}
	defer func() { _ = mesh.Close() }()
	addrs := map[int]string{0: mesh.Addr()}

	for _, j := range c.joiners {
		j.reset(countOwned(spec.Owner, j.host))
		if err := j.send(ctrl{Type: "welcome", Host: j.host, Spec: &spec}); err != nil {
			return nil, fmt.Errorf("dist: welcome host %d: %w", j.host, err)
		}
	}
	for range c.joiners {
		m, err := c.nextFrom(ctx, "ready", func(h int) bool { return addrs[h] != "" })
		if err != nil {
			return nil, err
		}
		if m.DataAddr == "" {
			return nil, fmt.Errorf("dist: ready from host %d without a data address", m.Host)
		}
		addrs[m.Host] = m.DataAddr
	}

	group, err := buildGroup(0, &spec, proto, mesh, c.opts.Decode)
	if err != nil {
		return nil, err
	}
	c.group.Store(group)
	mesh.SetPeers(addrs)
	for _, j := range c.joiners {
		if err := j.send(ctrl{Type: "peers", Peers: addrs}); err != nil {
			return nil, fmt.Errorf("dist: peers to host %d: %w", j.host, err)
		}
	}
	armed := make(map[int]bool)
	for range c.joiners {
		m, err := c.nextFrom(ctx, "armed", func(h int) bool { return armed[h] })
		if err != nil {
			return nil, err
		}
		armed[m.Host] = true
	}

	// Go.
	startNs := time.Now().UnixNano()
	for _, j := range c.joiners {
		if err := j.send(ctrl{Type: "go", StartNs: startNs}); err != nil {
			return nil, fmt.Errorf("dist: go to host %d: %w", j.host, err)
		}
	}
	group.Start()

	// reported holds, per host, the statuses the latest joined status was
	// summed from: what a probe wave's answers are held against.
	reported := make([]runtime.GroupStatus, c.Hosts())
	firstRound := c.round
	fired, runErr := runtime.Watch(ctx, runtime.Watcher{
		What:     "dist: run",
		Deadline: spec.deadline(),
		Interval: statusInterval,
		Wake:     group.Wake(),
		Failures: spec.Failures,
		Status:   func() (runtime.GroupStatus, error) { return c.status(group, reported) },
		Confirm:  func(ctx context.Context) (bool, error) { return c.probe(ctx, group, reported) },
		Crash: func(p sim.ProcID) {
			host := spec.Owner[p]
			if host == 0 {
				group.Crash(p)
			} else {
				_ = c.joiners[host-1].send(ctrl{Type: "crash", Proc: int(p)})
			}
			c.opts.logf("crash injected: processor %d on host %d", p, host)
		},
	})
	endNs := time.Now().UnixNano()

	// Finish: collect every host's share, local group last.
	for _, j := range c.joiners {
		_ = j.send(ctrl{Type: "finish"})
	}
	results := make([]*runtime.GroupResult, 0, c.Hosts())
	for range c.joiners {
		res, err := nextReport(ctx, c.reports)
		if err != nil {
			if runErr == nil {
				runErr = err
			}
			break
		}
		results = append(results, res)
	}
	results = append(results, group.Finish())
	for _, j := range c.joiners {
		_ = j.send(ctrl{Type: "bye"})
	}

	if len(results) < c.Hosts() {
		return nil, fmt.Errorf("dist: only %d of %d hosts reported: %w", len(results), c.Hosts(), runErr)
	}
	merged, err := runtime.MergeGroups(proto.Name(), spec.Inputs, spec.Owner, results, startNs)
	if err != nil {
		return nil, err
	}
	runtime.Finish(merged, startNs, endNs, spec.Failures, fired, runErr)
	return &Report{Result: merged, PerHost: results, Waves: c.round - firstRound}, nil
}

// nextFrom returns the next handshake message, which must be of the given
// type and from a joiner of this session that has not sent one yet: a
// missing or doubled host would leave the mesh short of a peer, and the run
// idling to its deadline.
func (c *Coordinator) nextFrom(ctx context.Context, typ string, seen func(host int) bool) (ctrl, error) {
	m, err := next(ctx, c.handshake)
	switch {
	case err != nil:
		return m, err
	case m.Type != typ:
		return m, fmt.Errorf("dist: expected %s, got %q from host %d", typ, m.Type, m.Host)
	case m.Host < 1 || m.Host >= c.Hosts():
		return m, fmt.Errorf("dist: %s from unknown host %d (the session's joiners are hosts 1..%d)", typ, m.Host, len(c.joiners))
	case seen(m.Host):
		return m, fmt.Errorf("dist: %s from host %d twice", typ, m.Host)
	}
	return m, nil
}

// status joins the local group's status with every joiner's latest for one
// Watch round, and records in reported what each host contributed.
func (c *Coordinator) status(group *runtime.Group, reported []runtime.GroupStatus) (runtime.GroupStatus, error) {
	all := group.Status()
	reported[0] = all
	if all.Err != "" {
		return all, fmt.Errorf("dist: host 0: %s", all.Err)
	}
	for _, j := range c.joiners {
		j.mu.Lock()
		st, jerr := j.status, j.err
		j.mu.Unlock()
		if jerr != nil {
			return all, fmt.Errorf("dist: host %d control connection: %w", j.host, jerr)
		}
		if st.Err != "" {
			return all, fmt.Errorf("dist: host %d: %s", j.host, st.Err)
		}
		reported[j.host] = st
		all = all.Join(st)
	}
	return all, nil
}

// probe is the second wave (runtime.Watcher.Confirm): every host looks
// again, and the run is quiescent if each was idle since the status it had
// reported. The local group is read after the probes have left, so its
// second look, like every joiner's, is later than the instant the first
// probe left and its first look earlier — the instant they all vouch for.
func (c *Coordinator) probe(ctx context.Context, group *runtime.Group, reported []runtime.GroupStatus) (bool, error) {
	c.round++
	for _, j := range c.joiners {
		if err := j.send(ctrl{Type: "probe", Round: c.round}); err != nil {
			return false, fmt.Errorf("dist: probe host %d: %w", j.host, err)
		}
	}
	if !group.Status().IdleSince(reported[0]) {
		return false, nil // the late answers still update the joiners' statuses
	}
	for _, j := range c.joiners {
		for {
			j.mu.Lock()
			st, round, jerr := j.status, j.round, j.err
			j.mu.Unlock()
			if jerr != nil {
				return false, fmt.Errorf("dist: host %d control connection: %w", j.host, jerr)
			}
			if round == c.round {
				if !st.IdleSince(reported[j.host]) {
					return false, nil
				}
				break
			}
			select {
			case <-c.replied:
			case <-ctx.Done():
				return false, ctx.Err()
			}
		}
	}
	return true, nil
}

// readLoop drains one joiner's control connection for the whole session:
// statuses update the shared snapshot, reports complete a run, everything
// else feeds the handshake channel.
func (c *Coordinator) readLoop(j *joinerConn) {
	defer c.wg.Done()
	dec := json.NewDecoder(bufio.NewReader(j.conn))
	for {
		var m ctrl
		if err := dec.Decode(&m); err != nil {
			j.mu.Lock()
			if j.err == nil {
				j.err = err
			}
			j.mu.Unlock()
			// Unblock a Run that is waiting on this host's answer or report.
			notify(c.replied)
			select {
			case c.reports <- nil:
			default:
			}
			return
		}
		switch m.Type {
		case "status":
			if m.Status == nil {
				continue
			}
			j.mu.Lock()
			j.status = *m.Status
			if m.Round != 0 {
				j.round = m.Round
			}
			j.mu.Unlock()
			if m.Round != 0 {
				notify(c.replied)
			} else if g := c.group.Load(); g != nil {
				g.Nudge()
			}
		case "report":
			c.reports <- m.Report
		default:
			c.handshake <- m
		}
	}
}

func notify(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func next(ctx context.Context, ch <-chan ctrl) (ctrl, error) {
	select {
	case m := <-ch:
		return m, nil
	case <-ctx.Done():
		return ctrl{}, ctx.Err()
	case <-time.After(30 * time.Second):
		return ctrl{}, fmt.Errorf("dist: handshake timed out")
	}
}

func nextReport(ctx context.Context, ch <-chan *runtime.GroupResult) (*runtime.GroupResult, error) {
	select {
	case res := <-ch:
		if res == nil {
			return nil, fmt.Errorf("dist: a host's control connection dropped before it reported")
		}
		return res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("dist: timed out waiting for a host report")
	}
}

func acceptCtx(ctx context.Context, ln net.Listener) (net.Conn, error) {
	type res struct {
		conn net.Conn
		err  error
	}
	ch := make(chan res, 1)
	//ccvet:ignore golifecycle Accept cannot be interrupted portably; on ctx.Done the listener is closed, which makes Accept return and the goroutine exit
	go func() {
		conn, err := ln.Accept()
		ch <- res{conn, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, fmt.Errorf("dist: accept: %w", r.err)
		}
		return r.conn, nil
	case <-ctx.Done():
		ln.Close()
		return nil, ctx.Err()
	}
}

// Serve is the single-run convenience: admit the spec's joiners, run once,
// tear the session down.
func Serve(ctx context.Context, listenAddr string, spec Spec, opts Options) (*Report, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	c, err := NewCoordinator(ctx, listenAddr, spec.Hosts()-1, opts)
	if err != nil {
		return nil, err
	}
	defer func() { _ = c.Close() }()
	return c.Run(ctx, spec)
}

// ---- Joiner ----

// Join runs one joiner process for a whole session: dial the coordinator
// (with retry, since the joiner may start first), then serve runs until the
// coordinator says done or hangs up.
func Join(ctx context.Context, ctrlAddr string, opts Options) error {
	if opts.Resolve == nil || opts.Decode == nil {
		return fmt.Errorf("dist: Options.Resolve and Options.Decode are required")
	}
	conn, err := dialRetry(ctx, ctrlAddr, 10*time.Second)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	enc := json.NewEncoder(conn)
	inCh := make(chan ctrl, 64)
	// Deferred order on return: close the connection (failing the decoder's
	// read), drain inCh until the decoder closes it, then join it.
	defer wg.Wait()
	defer func() {
		for range inCh {
		}
	}()
	defer conn.Close()
	readErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		dec := json.NewDecoder(bufio.NewReader(conn))
		for {
			var m ctrl
			if err := dec.Decode(&m); err != nil {
				readErr <- err
				close(inCh)
				return
			}
			inCh <- m
		}
	}()
	j := &joinerSession{ctx: ctx, enc: enc, inCh: inCh, readErr: readErr, opts: opts}

	if err := enc.Encode(ctrl{Type: "hello"}); err != nil {
		return fmt.Errorf("dist: hello: %w", err)
	}
	for {
		m, ok, err := j.recvAny()
		if err != nil {
			return err
		}
		if !ok || m.Type == "done" {
			return nil // session over
		}
		if m.Type != "welcome" {
			return fmt.Errorf("dist: expected welcome, got %q", m.Type)
		}
		if m.Spec == nil {
			return fmt.Errorf("dist: welcome without a spec")
		}
		if err := j.runOne(*m.Spec, m.Host); err != nil {
			return err
		}
	}
}

// joinerSession is one joiner's side of the control connection.
type joinerSession struct {
	ctx     context.Context
	enc     *json.Encoder
	inCh    chan ctrl
	readErr chan error
	opts    Options
}

// recvAny returns the next control message; ok=false means the connection
// closed cleanly from the joiner's point of view.
func (j *joinerSession) recvAny() (ctrl, bool, error) {
	select {
	case m, ok := <-j.inCh:
		if !ok {
			return ctrl{}, false, nil
		}
		return m, true, nil
	case <-j.ctx.Done():
		return ctrl{}, false, j.ctx.Err()
	}
}

// recv returns the next message, requiring the given type.
func (j *joinerSession) recv(typ string) (ctrl, error) {
	select {
	case m, ok := <-j.inCh:
		if !ok {
			return ctrl{}, fmt.Errorf("dist: control connection lost: %v", <-j.readErr)
		}
		if m.Type != typ {
			return ctrl{}, fmt.Errorf("dist: expected %q, got %q", typ, m.Type)
		}
		return m, nil
	case <-j.ctx.Done():
		return ctrl{}, j.ctx.Err()
	case <-time.After(30 * time.Second):
		return ctrl{}, fmt.Errorf("dist: timed out waiting for %q", typ)
	}
}

// runOne executes one run's slice on this host.
func (j *joinerSession) runOne(spec Spec, host int) error {
	proto, err := j.opts.Resolve(spec.Proto, spec.N)
	if err != nil {
		return err
	}
	var holder atomic.Pointer[runtime.Group]
	mesh, err := startMesh(host, &spec, &holder)
	if err != nil {
		return err
	}
	defer func() { _ = mesh.Close() }()
	if err := j.enc.Encode(ctrl{Type: "ready", Host: host, DataAddr: mesh.Addr()}); err != nil {
		return fmt.Errorf("dist: ready: %w", err)
	}
	p, err := j.recv("peers")
	if err != nil {
		return err
	}
	group, err := buildGroup(host, &spec, proto, mesh, j.opts.Decode)
	if err != nil {
		return err
	}
	holder.Store(group)
	mesh.SetPeers(p.Peers)
	if err := j.enc.Encode(ctrl{Type: "armed", Host: host}); err != nil {
		return fmt.Errorf("dist: armed: %w", err)
	}
	if _, err := j.recv("go"); err != nil {
		return err
	}
	group.Start()
	j.opts.logf("host %d running %d processor(s)", host, countOwned(spec.Owner, host))

	// Whatever ends the run — finish, a cancelled context, a lost control
	// connection — the started group is finished exactly once.
	err = j.serve(group, host)
	res := group.Finish()
	if err != nil {
		return err
	}
	if err := j.enc.Encode(ctrl{Type: "report", Host: host, Report: res}); err != nil {
		return fmt.Errorf("dist: report: %w", err)
	}
	// Wait for bye so the mesh outlives any peer still flushing acks.
	if _, err := j.recv("bye"); err != nil {
		return err
	}
	return nil
}

// serve is a joiner's run loop from go to finish: it pushes the group's
// status whenever its work reaches zero and on every tick, answers probes
// with a fresh one, and applies routed crashes. Crashes and probes are
// handled in arrival order, so a probe sent after a crash sees it.
func (j *joinerSession) serve(group *runtime.Group, host int) error {
	push := func(round int) error {
		st := group.Status()
		if err := j.enc.Encode(ctrl{Type: "status", Host: host, Status: &st, Round: round}); err != nil {
			return fmt.Errorf("dist: status push: %w", err)
		}
		return nil
	}
	tick := time.NewTicker(statusInterval)
	defer tick.Stop()
	for {
		var err error
		select {
		case <-j.ctx.Done():
			return j.ctx.Err()
		case <-group.Wake():
			err = push(0)
		case <-tick.C:
			err = push(0)
		case m, ok := <-j.inCh:
			if !ok {
				return fmt.Errorf("dist: control connection lost: %v", <-j.readErr)
			}
			switch m.Type {
			case "crash":
				group.Crash(sim.ProcID(m.Proc))
			case "probe":
				err = push(m.Round)
			case "finish":
				return nil
			}
		}
		if err != nil {
			return err
		}
	}
}

func dialRetry(ctx context.Context, addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	var lastErr error
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	return nil, fmt.Errorf("dist: dial %s: %w", addr, lastErr)
}

func countOwned(owner []int, host int) int {
	c := 0
	for _, o := range owner {
		if o == host {
			c++
		}
	}
	return c
}
