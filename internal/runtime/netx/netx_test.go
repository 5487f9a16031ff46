package netx

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// pair brings up two mesh nodes wired to each other and returns them plus
// the receive log of node b.
func pair(t *testing.T, cfgA, cfgB Config) (*Mesh, *Mesh, *recvLog) {
	t.Helper()
	logB := &recvLog{}
	cfgA.Self, cfgB.Self = 0, 1
	if cfgA.OnFrame == nil {
		cfgA.OnFrame = func(int, []byte) {}
	}
	cfgB.OnFrame = logB.record
	a, err := Listen("127.0.0.1:0", cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen("127.0.0.1:0", cfgB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	addrs := map[int]string{0: a.Addr(), 1: b.Addr()}
	a.SetPeers(addrs)
	b.SetPeers(addrs)
	return a, b, logB
}

type recvLog struct {
	mu     sync.Mutex
	seqs   []uint64 // ccvet:guardedby mu
	byPeer map[int]int
}

func (rl *recvLog) record(from int, payload []byte) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.seqs = append(rl.seqs, binary.BigEndian.Uint64(payload))
	if rl.byPeer == nil {
		rl.byPeer = make(map[int]int)
	}
	rl.byPeer[from]++
}

func (rl *recvLog) count() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return len(rl.seqs)
}

func (rl *recvLog) snapshot() []uint64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return append([]uint64(nil), rl.seqs...)
}

func payload(i uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], i)
	return b[:]
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestMeshDeliversInOrder: payloads arrive exactly once, in per-link order.
func TestMeshDeliversInOrder(t *testing.T) {
	a, _, logB := pair(t, Config{}, Config{})
	const n = 200
	for i := uint64(1); i <= n; i++ {
		if err := a.Send(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return logB.count() == n }, "not all payloads arrived")
	for i, s := range logB.snapshot() {
		if s != uint64(i+1) {
			t.Fatalf("out of order at %d: got %d", i, s)
		}
	}
	if st := a.Stats(); st.FramesSent < n {
		t.Errorf("FramesSent = %d, want ≥ %d", st.FramesSent, n)
	}
	waitFor(t, 2*time.Second, func() bool { return a.Pending() == 0 }, "queue never drained")
}

// TestReconnectResumesFromAck: injected resets close the connection
// mid-stream; the link must redial and resume with no loss and no
// duplicate at the payload layer.
func TestReconnectResumesFromAck(t *testing.T) {
	cfg := Config{
		PartitionInterval: 40 * time.Millisecond,
		Faults: LinkFaultPlan{
			Seed:            7,
			ResetRate:       0.5,
			ActiveIntervals: 10,
		},
	}
	a, _, logB := pair(t, cfg, Config{})
	const n = 400
	for i := uint64(1); i <= n; i++ {
		if err := a.Send(1, payload(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	waitFor(t, 10*time.Second, func() bool { return logB.count() == n }, "payloads lost across resets")
	for i, s := range logB.snapshot() {
		if s != uint64(i+1) {
			t.Fatalf("loss or duplication at %d: got %d", i, s)
		}
	}
	st := a.Stats()
	if st.Resets == 0 {
		t.Error("no resets were injected; the schedule should contain some at rate 0.5")
	}
	if st.Reconnects == 0 {
		t.Error("link never reconnected after a reset")
	}
}

// TestDeliverBeforeAck: an ack tells the sender to forget the frame, so none
// may be written for a frame whose OnFrame has not returned — not even by a
// second connection that, after a reset, holds the replay of that frame and
// sees it as a duplicate. The test plays the sender on raw sockets: frame 1
// stalls in OnFrame on the first connection, the second replays it, and until
// the stall ends neither connection may carry an ack.
func TestDeliverBeforeAck(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	deliveries := 0
	m, err := Listen("127.0.0.1:0", Config{Self: 0, OnFrame: func(int, []byte) {
		deliveries++ // serial by contract: the race detector holds the mesh to it
		entered <- struct{}{}
		<-release
	}})
	if err != nil {
		t.Fatal(err)
	}
	endStall := sync.OnceFunc(func() { close(release) })
	defer m.Close()
	defer endStall() // a failed assertion must not leave Close waiting on the stalled delivery
	replay := func() net.Conn {
		conn, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := conn.Write(appendData(appendHello(nil, 7), 1, payload(1))); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	readAck := func(conn net.Conn, wait time.Duration) (uint64, error) {
		_ = conn.SetReadDeadline(time.Now().Add(wait))
		typ, body, _, err := readWireFrame(bufio.NewReader(conn), nil)
		if err != nil {
			return 0, err
		}
		if typ != frameAck {
			t.Fatalf("frame type %d on an inbound link, want an ack", typ)
		}
		return parseAck(body)
	}
	first := replay()
	<-entered // frame 1 is mid-delivery
	second := replay()
	for _, conn := range []net.Conn{second, first} {
		var ne net.Error
		if cum, err := readAck(conn, 100*time.Millisecond); !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("ack %d (err %v) written while OnFrame had not returned for frame 1", cum, err)
		}
	}
	endStall()
	for _, conn := range []net.Conn{first, second} {
		if cum, err := readAck(conn, 5*time.Second); err != nil || cum != 1 {
			t.Fatalf("after the delivery: ack %d, err %v; want 1 on both connections", cum, err)
		}
	}
	if deliveries != 1 {
		t.Errorf("frame 1 delivered %d times", deliveries)
	}
}

// TestPartitionHoldsAndHeals: a severed interval parks frames; they flush
// after the active window ends, and nothing is lost.
func TestPartitionHoldsAndHeals(t *testing.T) {
	// Find a seed that severs link 0→1 in interval 0.
	seed := int64(0)
	for ; ; seed++ {
		p := LinkFaultPlan{Seed: seed, SeverRate: 0.9, ActiveIntervals: 1}
		if p.State(0, 1, 0) == LinkSevered {
			break
		}
	}
	interval := 150 * time.Millisecond
	cfg := Config{
		PartitionInterval: interval,
		Faults:            LinkFaultPlan{Seed: seed, SeverRate: 0.9, ActiveIntervals: 1},
	}
	a, _, logB := pair(t, cfg, Config{})
	const n = 20
	for i := uint64(1); i <= n; i++ {
		if err := a.Send(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Inside the severed interval nothing should arrive.
	time.Sleep(interval / 2)
	if c := logB.count(); c != 0 {
		t.Fatalf("severed link delivered %d frames", c)
	}
	// After the heal everything flushes.
	waitFor(t, 5*time.Second, func() bool { return logB.count() == n }, "held frames never flushed after heal")
	st := a.Stats()
	if st.SeveredIntervals == 0 {
		t.Error("severed interval not counted")
	}
	if st.HeldFrames == 0 {
		t.Error("held frames not counted")
	}
}

// TestKeepaliveDetectsPermanentPartition: an isolated peer's inbound link
// goes silent; the receiver must declare it down.
func TestKeepaliveDetectsPermanentPartition(t *testing.T) {
	downCh := make(chan int, 16)
	cfgA := Config{
		PartitionInterval: 50 * time.Millisecond,
		Faults:            LinkFaultPlan{Seed: 1, Isolate: []int{0}},
	}
	cfgB := Config{
		Keepalive:        30 * time.Millisecond,
		KeepaliveTimeout: 150 * time.Millisecond,
		OnPeerDown:       func(peer int) { downCh <- peer },
	}
	a, b, logB := pair(t, cfgA, cfgB)
	if err := a.Send(1, payload(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case peer := <-downCh:
		if peer != 0 {
			t.Fatalf("down verdict against peer %d, want 0", peer)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no link-down verdict against a permanently severed link")
	}
	if logB.count() != 0 {
		t.Error("frames crossed a permanently severed link")
	}
	if st := b.Stats(); st.LinkDowns == 0 {
		t.Error("LinkDowns not counted")
	}
	if a.Pending() == 0 {
		t.Error("severed sender should still hold its frame")
	}
}

// TestSendBackpressure: a full queue blocks Send instead of buffering
// without bound; mesh close unblocks it.
func TestSendBackpressure(t *testing.T) {
	cfg := Config{
		QueueCap:          4,
		PartitionInterval: time.Hour, // one giant severed interval: nothing drains
		Faults:            LinkFaultPlan{Seed: 3, Isolate: []int{0}},
	}
	a, _, _ := pair(t, cfg, Config{})
	for i := uint64(1); i <= 4; i++ {
		if err := a.Send(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- a.Send(1, payload(5)) }()
	select {
	case err := <-blocked:
		t.Fatalf("Send returned (%v) with a full queue on a severed link", err)
	case <-time.After(100 * time.Millisecond):
	}
	a.Close()
	select {
	case err := <-blocked:
		if err == nil {
			t.Error("Send on a closed mesh should error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock Send")
	}
}

// TestLinkFaultPlanDeterminism: schedules are pure functions of the seed.
func TestLinkFaultPlanDeterminism(t *testing.T) {
	procs := []int{0, 1, 2, 3}
	p1 := LinkFaultPlan{Seed: 42, SeverRate: 0.2, StallRate: 0.1, ResetRate: 0.1, ActiveIntervals: 8}
	p2 := LinkFaultPlan{Seed: 42, SeverRate: 0.2, StallRate: 0.1, ResetRate: 0.1, ActiveIntervals: 8}
	if p1.Render(procs, 12) != p2.Render(procs, 12) {
		t.Fatal("same seed must render byte-identical schedules")
	}
	p3 := LinkFaultPlan{Seed: 43, SeverRate: 0.2, StallRate: 0.1, ResetRate: 0.1, ActiveIntervals: 8}
	if p1.Render(procs, 12) == p3.Render(procs, 12) {
		t.Fatal("different seeds should differ somewhere in a 12-interval schedule")
	}
	// Past the active window every link heals.
	for _, from := range procs {
		for _, to := range procs {
			if from == to {
				continue
			}
			if st := p1.State(from, to, 8); st != LinkOK {
				t.Fatalf("interval 8 is past ActiveIntervals yet %d->%d is %s", from, to, st)
			}
		}
	}
	// Isolation is permanent and asymmetric rolls are possible.
	iso := LinkFaultPlan{Seed: 1, Isolate: []int{2}}
	for ivl := 0; ivl < 100; ivl += 10 {
		if iso.State(2, 0, ivl) != LinkSevered || iso.State(0, 2, ivl) != LinkSevered {
			t.Fatal("isolation must sever both directions forever")
		}
		if iso.State(0, 1, ivl) != LinkOK {
			t.Fatal("links between non-isolated peers must stay up")
		}
	}
	asym := false
	p := LinkFaultPlan{Seed: 9, SeverRate: 0.3, ActiveIntervals: 50}
	for ivl := 0; ivl < 50 && !asym; ivl++ {
		asym = (p.State(0, 1, ivl) == LinkSevered) != (p.State(1, 0, ivl) == LinkSevered)
	}
	if !asym {
		t.Error("independent directed rolls should produce an asymmetric interval at rate 0.3")
	}
}

// TestWireCodecRoundTrips pins the frame grammar.
func TestWireCodecRoundTrips(t *testing.T) {
	checks := []struct {
		frame []byte
		typ   byte
	}{
		{appendHello(nil, 7), frameHello},
		{appendData(nil, 99, []byte("payload")), frameData},
		{appendAck(nil, 12345), frameAck},
		{appendFrame(nil, framePing, nil), framePing},
		{appendFrame(nil, framePong, nil), framePong},
	}
	var all []byte
	for _, c := range checks {
		all = append(all, c.frame...)
	}
	r := bufio.NewReader(bytes.NewReader(all))
	var buf []byte
	for i, c := range checks {
		typ, body, nbuf, err := readWireFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = nbuf
		if typ != c.typ {
			t.Fatalf("frame %d: type %d, want %d", i, typ, c.typ)
		}
		switch typ {
		case frameHello:
			if id, err := parseHello(body); err != nil || id != 7 {
				t.Fatalf("hello: %d, %v", id, err)
			}
		case frameData:
			seq, p, err := parseData(body)
			if err != nil || seq != 99 || string(p) != "payload" {
				t.Fatalf("data: %d %q %v", seq, p, err)
			}
		case frameAck:
			if cum, err := parseAck(body); err != nil || cum != 12345 {
				t.Fatalf("ack: %d, %v", cum, err)
			}
		}
	}
}
