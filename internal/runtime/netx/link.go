package netx

import (
	"bufio"
	"net"
	"sync"
	"time"

	"repro/internal/fingerprint"
)

// queued is one payload awaiting acknowledgement on an outbound link.
type queued struct {
	seq     uint64
	payload []byte
}

// link is the sending half of one directed edge self→to: a bounded queue
// of unacked payloads drained by a single writer goroutine over whatever
// connection is currently up. The writer dials with exponential backoff
// and deterministic jitter, replays everything above the peer's last
// cumulative ack after each reconnect, sends keepalive pings when idle,
// and enforces the seeded fault plan by holding frames (sever, stall) or
// tearing the connection down (reset). There is exactly one goroutine per
// link plus one ack reader per live connection — never one per message.
type link struct {
	m    *Mesh
	to   int
	addr string

	mu   sync.Mutex
	cond *sync.Cond
	buf  []queued // ccvet:guardedby mu — unacked payloads in ascending seq order
	sent int      // ccvet:guardedby mu — prefix of buf written on the current connection
	seq  uint64   // ccvet:guardedby mu — last assigned sequence number
	conn net.Conn // ccvet:guardedby mu — current connection, nil while down
	dead bool     // ccvet:guardedby mu — link closed for good

	// Writer-goroutine-only interval bookkeeping (no lock needed).
	lastResetIvl int
	lastSevIvl   int
	lastHeldIvl  int
	everUp       bool
}

func newLink(m *Mesh, to int, addr string) *link {
	l := &link{m: m, to: to, addr: addr, lastResetIvl: -1, lastSevIvl: -1, lastHeldIvl: -1}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// send enqueues one payload, blocking while the queue is at capacity. The
// link keeps the payload until it is acked and never writes it.
func (l *link) send(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.buf) >= l.m.cfg.queueCap() && !l.dead {
		l.cond.Wait()
	}
	if l.dead {
		return errMeshClosed
	}
	l.seq++
	l.buf = append(l.buf, queued{seq: l.seq, payload: payload})
	l.cond.Broadcast()
	return nil
}

// pending returns the number of enqueued-but-unacked payloads.
func (l *link) pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// onAck drops the acked prefix and wakes blocked senders.
func (l *link) onAck(cum uint64) {
	l.mu.Lock()
	drop := 0
	for drop < len(l.buf) && l.buf[drop].seq <= cum {
		drop++
	}
	if drop > 0 {
		l.buf = append([]queued(nil), l.buf[drop:]...)
		if l.sent -= drop; l.sent < 0 {
			l.sent = 0
		}
		l.cond.Broadcast()
	}
	l.mu.Unlock()
	if drop > 0 && l.m.cfg.OnAck != nil {
		l.m.cfg.OnAck(l.to, drop)
	}
}

// close shuts the link down for good.
func (l *link) close() {
	l.mu.Lock()
	l.dead = true
	if l.conn != nil {
		_ = l.conn.Close()
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// waitLocked blocks on the condition variable for at most d. Callers hold
// l.mu; the lock is held again on return.
//
//ccvet:holds mu
func (l *link) waitLocked(d time.Duration) {
	t := time.AfterFunc(d, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	l.cond.Wait()
	t.Stop()
}

// run is the link's writer goroutine: dial, resume, drain, redial — until
// the mesh closes.
func (l *link) run() {
	defer l.m.wg.Done()
	for {
		conn := l.dial()
		if conn == nil {
			return
		}
		if l.everUp {
			l.m.counters.reconnects.Add(1)
		}
		l.everUp = true
		l.mu.Lock()
		if l.dead {
			l.mu.Unlock()
			_ = conn.Close()
			return
		}
		l.conn = conn
		// Resume: everything unacked replays on the fresh connection.
		if l.sent > 0 {
			l.m.counters.framesResent.Add(int64(l.sent))
		}
		l.sent = 0
		l.mu.Unlock()

		if _, err := conn.Write(appendHello(nil, l.m.cfg.Self)); err == nil {
			//ccvet:ignore golifecycle run itself holds a wg slot, so this Add never races a zero-counter Wait
			l.m.wg.Add(1)
			go l.readAcks(conn)
			l.writeLoop(conn)
		}

		l.mu.Lock()
		if l.conn == conn {
			l.conn = nil
		}
		dead := l.dead
		l.mu.Unlock()
		_ = conn.Close()
		if dead {
			return
		}
	}
}

// dial connects to the peer, retrying with exponential backoff and
// deterministic jitter. Returns nil once the mesh closes.
func (l *link) dial() net.Conn {
	for attempt := 0; ; attempt++ {
		select {
		case <-l.m.done:
			return nil
		default:
		}
		d := net.Dialer{Timeout: 2 * time.Second}
		l.m.counters.dials.Add(1)
		conn, err := d.Dial("tcp", l.addr)
		if err == nil {
			return conn
		}
		select {
		case <-time.After(dialBackoff(l.m.cfg.Faults.Seed, l.m.cfg.Self, l.to, attempt)):
		case <-l.m.done:
			return nil
		}
	}
}

// dialBackoff is the redial schedule: exponential from 5ms, capped at
// 500ms, plus deterministic jitter up to half the base — a pure function
// of (seed, link, attempt), so two runs with one seed retry identically.
//
//ccvet:pure
func dialBackoff(seed int64, from, to, attempt int) time.Duration {
	const (
		base    = 5 * time.Millisecond
		ceiling = 500 * time.Millisecond
	)
	d := base << uint(attempt)
	if d > ceiling || d <= 0 {
		d = ceiling
	}
	x := fingerprint.Mix64(uint64(seed) ^ saltLink ^ uint64(from)<<32 ^ uint64(to)<<16 ^ uint64(attempt))
	jitter := time.Duration(float64(x>>11) / float64(1<<53) * float64(d) / 2)
	return d + jitter
}

// writeLoop drains the queue onto conn until the connection or the link
// dies. It is the only writer on conn (the ack reader only reads).
func (l *link) writeLoop(conn net.Conn) {
	var scratch []byte
	keepalive := l.m.cfg.keepalive()
	lastWrite := time.Now()
	for {
		l.mu.Lock()
		if l.dead || l.conn != conn {
			l.mu.Unlock()
			return
		}
		now := time.Now()
		if pause, st, idx := l.m.gate(l.to, now); st != LinkOK {
			if st == LinkReset {
				if idx != l.lastResetIvl {
					// One forced close per reset interval; the redial
					// exercises resume-from-ack under load.
					l.lastResetIvl = idx
					l.mu.Unlock()
					l.m.counters.resets.Add(1)
					return
				}
			} else if pause > 0 {
				if st == LinkSevered && idx != l.lastSevIvl {
					l.lastSevIvl = idx
					l.m.counters.severedIntervals.Add(1)
				}
				if held := len(l.buf) - l.sent; held > 0 && idx != l.lastHeldIvl {
					l.lastHeldIvl = idx
					l.m.counters.heldFrames.Add(int64(held))
				}
				l.waitLocked(pause)
				l.mu.Unlock()
				continue
			}
		}
		if l.sent < len(l.buf) {
			q := l.buf[l.sent]
			l.sent++
			l.mu.Unlock()
			scratch = appendData(scratch[:0], q.seq, q.payload)
			_ = conn.SetWriteDeadline(now.Add(5 * time.Second))
			if _, err := conn.Write(scratch); err != nil {
				return
			}
			l.m.counters.framesSent.Add(1)
			lastWrite = now
			continue
		}
		if idle := now.Sub(lastWrite); idle >= keepalive {
			l.mu.Unlock()
			scratch = appendFrame(scratch[:0], framePing, nil)
			_ = conn.SetWriteDeadline(now.Add(5 * time.Second))
			if _, err := conn.Write(scratch); err != nil {
				return
			}
			lastWrite = now
		} else {
			l.waitLocked(keepalive - idle)
			l.mu.Unlock()
		}
	}
}

// readAcks consumes ack and pong frames from conn until it dies, feeding
// cumulative acks back into the queue. Closing the connection (reset,
// mesh close, peer failure) unblocks the read and ends the goroutine.
func (l *link) readAcks(conn net.Conn) {
	defer l.m.wg.Done()
	r := bufio.NewReader(conn)
	var buf []byte
	for {
		typ, body, nbuf, err := readWireFrame(r, buf)
		if err != nil {
			// Wake the writer so it notices the dead connection.
			l.mu.Lock()
			if l.conn == conn {
				l.conn = nil
			}
			l.cond.Broadcast()
			l.mu.Unlock()
			_ = conn.Close()
			return
		}
		buf = nbuf
		if typ == frameAck {
			if cum, err := parseAck(body); err == nil {
				l.onAck(cum)
			}
		}
	}
}
