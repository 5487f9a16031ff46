package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/protocols"
	"repro/internal/runtime"
	"repro/internal/runtime/dist"
	"repro/internal/runtime/netx"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// opts is the protocol registry every host in these tests shares.
var opts = dist.Options{
	Resolve: func(name string, n int) (sim.Protocol, error) {
		if name != "ackcommit" {
			return nil, fmt.Errorf("test registry has no %q", name)
		}
		return protocols.AckCommit{Procs: n}, nil
	},
	Decode: protocols.ParsePayloadKey,
}

var wtTC = taxonomy.Problem{Rule: taxonomy.UnanimityRule{}, Consistency: taxonomy.TC, Termination: taxonomy.WT}

// contiguousOwner splits n processors into hosts contiguous slices.
func contiguousOwner(n, hosts int) []int {
	owner := make([]int, n)
	for p := range owner {
		owner[p] = p * hosts / n
	}
	return owner
}

// runDistributed executes one distributed run in-process: Serve on a
// goroutine for host 0, one Join goroutine per remaining host.
func runDistributed(t *testing.T, spec dist.Spec) *dist.Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	addrCh := make(chan string, 1)
	o := opts
	o.OnListen = func(addr string) { addrCh <- addr }

	type served struct {
		rep *dist.Report
		err error
	}
	servedCh := make(chan served, 1)
	go func() {
		rep, err := dist.Serve(ctx, "127.0.0.1:0", spec, o)
		servedCh <- served{rep, err}
	}()
	addr := <-addrCh

	joinErr := make(chan error, spec.Hosts())
	for h := 1; h < spec.Hosts(); h++ {
		go func() { joinErr <- dist.Join(ctx, addr, opts) }()
	}

	s := <-servedCh
	if s.err != nil {
		t.Fatalf("Serve: %v", s.err)
	}
	for h := 1; h < spec.Hosts(); h++ {
		if err := <-joinErr; err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	return s.rep
}

// TestDistributedRunConforms runs ackcommit N=9 across three processes'
// worth of groups with message faults and link faults, and requires the
// merged Lamport-ordered schedule to replay as a legal run of the model —
// the same conformance bar a one-host run clears.
func TestDistributedRunConforms(t *testing.T) {
	const n, hosts = 9, 3
	inputs := make([]sim.Bit, n)
	for i := range inputs {
		inputs[i] = sim.One
	}
	spec := dist.Spec{
		Proto:  "ackcommit",
		N:      n,
		Inputs: inputs,
		Owner:  contiguousOwner(n, hosts),
		Faults: runtime.FaultPlan{Seed: 99, DropRate: 0.05, DupRate: 0.05, MaxDelay: 200 * time.Microsecond},
		Links: netx.LinkFaultPlan{
			Seed:            7,
			SeverRate:       0.15,
			StallRate:       0.10,
			ResetRate:       0.10,
			ActiveIntervals: 3,
		},
		PartitionInterval: 50 * time.Millisecond,
		Deadline:          90 * time.Second,
	}
	rep := runDistributed(t, spec)
	res := rep.Result
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if !res.Quiescent {
		t.Fatal("run did not quiesce")
	}
	proto := protocols.AckCommit{Procs: n}
	conf, err := runtime.ConformStream(res, proto, wtTC)
	if err != nil {
		t.Fatalf("ConformStream: %v", err)
	}
	if !conf.OK() {
		t.Fatalf("distributed trace diverges from the model: %v", conf.Divergences[0])
	}
	for p, d := range res.Decisions {
		if d != sim.Commit {
			t.Errorf("processor %d decided %s, want commit (all-ones, no crashes)", p, d)
		}
	}
	st := res.Transport
	if st.FramesSent == 0 {
		t.Error("no frames crossed the mesh; the run was not distributed")
	}
	if st.Accepted != st.Settled {
		t.Errorf("accepted %d != settled %d at quiescence", st.Accepted, st.Settled)
	}
	if st.EncodeFailures != 0 || st.GarbageFrames != 0 {
		t.Errorf("silent-loss counters nonzero: encode %d, garbage %d", st.EncodeFailures, st.GarbageFrames)
	}
	if len(rep.PerHost) != hosts {
		t.Fatalf("%d host reports, want %d", len(rep.PerHost), hosts)
	}
}

// TestDistributedOmissionsCounted runs under the receive-omission injector
// across three hosts: every Omit event of the merged schedule must be in
// the merged transport counter, whichever host suppressed the delivery (the
// merge once summed every counter but this one).
func TestDistributedOmissionsCounted(t *testing.T) {
	const n, hosts = 6, 3
	inputs := make([]sim.Bit, n)
	for i := range inputs {
		inputs[i] = sim.One
	}
	rep := runDistributed(t, dist.Spec{
		Proto:    "ackcommit",
		N:        n,
		Inputs:   inputs,
		Owner:    contiguousOwner(n, hosts),
		Faults:   runtime.FaultPlan{Seed: 1984, OmitRate: 0.3, OmitMaxSeq: 4},
		Deadline: 90 * time.Second,
	})
	res := rep.Result
	if res.Err != nil || !res.Quiescent {
		t.Fatalf("run error %v, quiescent %v", res.Err, res.Quiescent)
	}
	omits := int64(0)
	for _, e := range res.Schedule {
		if e.Type == sim.Omit {
			omits++
		}
	}
	if omits == 0 {
		t.Fatal("omission injector never fired; the test pins nothing")
	}
	if res.Transport.Omissions != omits {
		t.Errorf("merged transport counts %d omissions, the merged schedule records %d Omit events", res.Transport.Omissions, omits)
	}
}

// TestDistributedCrashRecovery injects a crash on a remotely hosted
// processor mid-run; the owner host must detect it, the notices must cross
// the mesh, and the merged trace must still conform.
func TestDistributedCrashRecovery(t *testing.T) {
	const n, hosts = 9, 3
	inputs := make([]sim.Bit, n)
	for i := range inputs {
		inputs[i] = sim.One
	}
	spec := dist.Spec{
		Proto:         "ackcommit",
		N:             n,
		Inputs:        inputs,
		Owner:         contiguousOwner(n, hosts),
		Faults:        runtime.FaultPlan{Seed: 3, DropRate: 0.05, MaxDelay: 100 * time.Microsecond},
		Heartbeat:     time.Millisecond,
		DetectTimeout: 15 * time.Millisecond,
		Deadline:      90 * time.Second,
		// Processor 4 lives on host 1: the crash command crosses the
		// control plane, the notices cross the mesh.
		Failures: []sim.FailureAt{{Proc: 4, AfterStep: 6}},
	}
	rep := runDistributed(t, spec)
	res := rep.Result
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if !res.Quiescent {
		t.Fatal("run did not quiesce after the crash")
	}
	if len(res.Crashes) != 1 || res.Crashes[0].Proc != 4 {
		t.Fatalf("crashes = %+v, want exactly processor 4", res.Crashes)
	}
	if res.Crashes[0].Detection <= 0 {
		t.Error("crash detection latency not measured")
	}
	conf, err := runtime.ConformStream(res, protocols.AckCommit{Procs: n}, wtTC)
	if err != nil {
		t.Fatalf("ConformStream: %v", err)
	}
	if !conf.OK() {
		t.Fatalf("post-crash distributed trace diverges: %v", conf.Divergences[0])
	}
}

// session opens a coordinator with in-process joiners, the way a soak runs
// many runs over one control plane, and tears it all down with the test.
func session(t *testing.T, joins int) (*dist.Coordinator, context.Context) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	joinErr := make(chan error, joins)
	o := opts
	o.OnListen = func(addr string) {
		for h := 0; h < joins; h++ {
			go func() { joinErr <- dist.Join(ctx, addr, opts) }()
		}
	}
	c, err := dist.NewCoordinator(ctx, "127.0.0.1:0", joins, o)
	if err != nil {
		cancel()
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		for h := 0; h < joins; h++ {
			if err := <-joinErr; err != nil {
				t.Errorf("Join: %v", err)
			}
		}
		cancel()
	})
	return c, ctx
}

// TestDistributedZeroReplaysQuiescent is TestTokenQuiescenceProperty across
// three hosts: whatever a seeded crash, drops and lost acks do to a run, a
// probe wave that finds every host idle since its report is quiescence in
// the model's sense — the merged schedule replays to a quiescent final
// configuration with every accepted message settled and no divergence.
func TestDistributedZeroReplaysQuiescent(t *testing.T) {
	const n, hosts = 6, 3
	runs := 200
	if testing.Short() {
		runs = 25
	}
	c, ctx := session(t, hosts-1)
	proto := protocols.AckCommit{Procs: n}
	rng := rand.New(rand.NewSource(1984))
	crashed, waves := 0, 0
	for run := 0; run < runs; run++ {
		inputs := make([]sim.Bit, n)
		for i := range inputs {
			inputs[i] = sim.Bit(rng.Intn(2))
		}
		spec := dist.Spec{
			Proto:         "ackcommit",
			N:             n,
			Inputs:        inputs,
			Owner:         contiguousOwner(n, hosts),
			Faults:        runtime.FaultPlan{Seed: rng.Int63(), DropRate: 0.3, DupRate: 0.3},
			Failures:      []sim.FailureAt{{Proc: sim.ProcID(rng.Intn(n)), AfterStep: rng.Intn(4 * n)}},
			Heartbeat:     200 * time.Microsecond,
			DetectTimeout: 2 * time.Millisecond,
			Deadline:      30 * time.Second,
		}
		rep, err := c.Run(ctx, spec)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		res := rep.Result
		if res.Err != nil || !res.Quiescent || rep.Waves < 1 {
			t.Fatalf("run %d (faults %+v, failures %v): err %v, quiescent %v after %d waves", run, spec.Faults, spec.Failures, res.Err, res.Quiescent, rep.Waves)
		}
		crashed += len(res.Crashes)
		waves += rep.Waves
		// The run claims quiescence, so OK() includes the replay's final
		// configuration being quiescent.
		conf, err := runtime.ConformStream(res, proto, wtTC)
		if err != nil {
			t.Fatalf("run %d: ConformStream: %v", run, err)
		}
		if !conf.OK() || conf.Replayed != len(res.Schedule) || res.Transport.Accepted != res.Transport.Settled {
			t.Errorf("run %d (faults %+v, failures %v): %d events, replayed %d, accepted %d, settled %d, divergences %v",
				run, spec.Faults, spec.Failures, len(res.Schedule), conf.Replayed,
				res.Transport.Accepted, res.Transport.Settled, conf.Divergences)
		}
	}
	if crashed < runs/2 {
		t.Errorf("only %d of %d planned crashes fired: the property saw too few", crashed, runs)
	}
	t.Logf("%d runs, %d crashes, %d probe waves", runs, crashed, waves)
}

// wire is the control plane's JSON line as a scripted peer writes and reads
// it: the tests below play one side of the handshake by hand.
type wire struct {
	Type     string               `json:"type"`
	Host     int                  `json:"host,omitempty"`
	Spec     *dist.Spec           `json:"spec,omitempty"`
	DataAddr string               `json:"dataAddr,omitempty"`
	Peers    map[int]string       `json:"peers,omitempty"`
	Status   *runtime.GroupStatus `json:"status,omitempty"`
}

// peer is one end of a control connection driven by a test.
type peer struct {
	t   *testing.T
	enc *json.Encoder
	dec *json.Decoder
}

func newPeer(t *testing.T, conn net.Conn) *peer {
	t.Cleanup(func() { conn.Close() })
	return &peer{t: t, enc: json.NewEncoder(conn), dec: json.NewDecoder(bufio.NewReader(conn))}
}

func (p *peer) send(m wire) {
	p.t.Helper()
	if err := p.enc.Encode(m); err != nil {
		p.t.Fatalf("send %s: %v", m.Type, err)
	}
}

// expect reads on to the next message of the given type.
func (p *peer) expect(typ string) wire {
	p.t.Helper()
	for {
		var m wire
		if err := p.dec.Decode(&m); err != nil {
			p.t.Fatalf("waiting for %s: %v", typ, err)
		}
		if m.Type == typ {
			return m
		}
	}
}

// deadAddr is a data address nothing listens on: a mesh handed it redials
// until it is closed.
const deadAddr = "127.0.0.1:1"

func twoHostSpec() dist.Spec {
	return dist.Spec{Proto: "ackcommit", N: 4, Inputs: []sim.Bit{1, 1, 1, 1}, Owner: []int{0, 0, 1, 1}, Deadline: 30 * time.Second}
}

// TestJoinerCancelledMidRunLeaksNothing: a joiner whose context ends after
// the go signal must still finish the group it started — nodes, scheduler,
// detector loop — so its goroutine count returns to what it was before the
// run. The coordinator is scripted, and never acks a frame, so the run is
// certainly still going when the context is cancelled.
func TestJoinerCancelledMidRunLeaksNothing(t *testing.T) {
	before := goruntime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	joined := make(chan error, 1)
	go func() { joined <- dist.Join(ctx, ln.Addr().String(), opts) }()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	coord := newPeer(t, conn)
	spec := twoHostSpec()
	coord.expect("hello")
	coord.send(wire{Type: "welcome", Host: 1, Spec: &spec})
	ready := coord.expect("ready")
	coord.send(wire{Type: "peers", Peers: map[int]string{0: deadAddr, 1: ready.DataAddr}})
	coord.expect("armed")
	coord.send(wire{Type: "go"})
	if st := coord.expect("status"); st.Status == nil || st.Status.Work == 0 {
		t.Fatalf("status %+v: host 1's frames to host 0 can never be acked, it cannot be idle", st.Status)
	}
	cancel()
	if err := <-joined; !errors.Is(err, context.Canceled) {
		t.Fatalf("Join returned %v, want the cancellation", err)
	}
	conn.Close()
	// The node heartbeats see the closed run on their own; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := goruntime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before the run, %d after the cancelled joiner returned:\n%s", before, after, buf[:goruntime.Stack(buf, true)])
	}
}

// TestCoordinatorRejectsBadHandshake: a ready or armed from a host that is
// not one of the session's joiners, or from the same one twice, would leave
// the mesh short of a peer and the run idling to its deadline. Run must
// refuse it, naming the host.
func TestCoordinatorRejectsBadHandshake(t *testing.T) {
	cases := []struct {
		name  string
		joins int
		play  func(p *peer, i int) // joiner i's side, from its welcome on
		want  string
	}{
		{"ready from a host out of range", 1, func(p *peer, _ int) {
			p.send(wire{Type: "ready", Host: 7, DataAddr: deadAddr})
		}, "ready from unknown host 7"},
		{"ready twice from one host", 2, func(p *peer, _ int) {
			p.send(wire{Type: "ready", Host: 1, DataAddr: deadAddr})
		}, "ready from host 1 twice"},
		{"armed from an unknown host", 1, func(p *peer, _ int) {
			p.send(wire{Type: "ready", Host: 1, DataAddr: deadAddr})
			p.expect("peers")
			p.send(wire{Type: "armed", Host: 9})
		}, "armed from unknown host 9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var played sync.WaitGroup
			defer played.Wait() // after Close has hung up on any joiner still reading
			o := opts
			o.OnListen = func(addr string) {
				for i := 0; i < tc.joins; i++ {
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						t.Errorf("dial: %v", err)
						return
					}
					p := newPeer(t, conn)
					p.send(wire{Type: "hello"})
					played.Add(1)
					go func() {
						defer played.Done()
						p.expect("welcome")
						tc.play(p, i)
					}()
				}
			}
			c, err := dist.NewCoordinator(ctx, "127.0.0.1:0", tc.joins, o)
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			defer c.Close()
			spec := twoHostSpec()
			spec.Owner = contiguousOwner(spec.N, tc.joins+1)
			if _, err := c.Run(ctx, spec); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run returned %v, want an error saying %q", err, tc.want)
			}
		})
	}
}
