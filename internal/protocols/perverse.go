package protocols

import (
	"strconv"

	"repro/internal/sim"
)

// Perverse is the WT-TC protocol of Figure 4: a four-processor protocol
// whose scheme contains exactly four failure-free communication patterns per
// input vector, distinguished by three contentless "dashed" messages that
// are sent or not sent according to the order in which certain other
// messages happen to be delivered:
//
//	m1 (p0 → p3) is sent iff p1's greeting is delivered to p0 before p3's;
//	m2 (p1 → p0) is sent iff p0's greeting is delivered to p1 before p3's;
//	m3 (p0 → p2) is sent iff both m1 and m2 are sent.
//
// The solid substrate is a two-phase star commit with coordinator p2 (bias
// before any decision, so all states are safe), and the greetings/dashed
// messages carry no information whatsoever: eliminating them leaves a
// perfectly good WT-TC (and ST-TC) pattern. The perversity is exactly the
// paper's: the scheme of this protocol cannot be the scheme of any ST-TC
// protocol, because an amnesic p0 cannot remember whether it sent m1 when m2
// arrives (Theorem 13, second half).
//
// The TR's figure does not pin down the exact endpoints of the dashed
// messages, so this reconstruction fixes concrete ones while preserving the
// figure's logical structure: four patterns related by exactly the stated
// send rules, with the dashed messages serving no purpose. To keep the
// pattern count at exactly four, the dashed sends are gated causally after
// every solid send of their recipients (p0 acts after it decides, and m2 is
// gated on a solid "done" message that p0 sends after resolving m1).
//
// With ForgetfulP0 set, p0 discards its m1 memory upon deciding — the
// executable counterpart of p0 becoming amnesic — and must fall back to a
// fixed rule on receiving m2 (it always sends m3). The resulting scheme
// contains patterns outside the four above, realizing the contradiction in
// the proof of Theorem 13.
type Perverse struct {
	// ForgetfulP0 makes p0 forget whether it sent m1, as an amnesic
	// processor would.
	ForgetfulP0 bool
}

var _ sim.Protocol = Perverse{}

// perverseN is the fixed processor count of Figure 4.
const perverseN = 4

// perverseCoord is the coordinator of the solid substrate.
const perverseCoord sim.ProcID = 2

// Name implements sim.Protocol.
func (pv Perverse) Name() string {
	if pv.ForgetfulP0 {
		return "perverse-forgetful"
	}
	return "perverse"
}

// N implements sim.Protocol.
func (pv Perverse) N() int { return perverseN }

// hiMsg is a contentless greeting used only to create a delivery race.
type hiMsg struct{}

func (hiMsg) Key() string { return "hi" }

// doneMsg is p0's solid post-decision message to p1, gating m2 causally
// after p0's m1 resolution.
type doneMsg struct{}

func (doneMsg) Key() string { return "done" }

// xMsg is a contentless dashed message m1, m2, or m3.
type xMsg struct{ ID int }

func (m xMsg) Key() string { return "x" + strconv.Itoa(m.ID) }

type perversePhase int

const (
	pvWaitBias   perversePhase = iota + 1 // participant awaiting bias
	pvWaitCommit                          // participant acked, awaiting commit
	pvCollect                             // coordinator gathering inputs
	pvWaitAcks                            // coordinator awaiting acks
	pvDone                                // decided (keeps listening: WT)
	pvTerm                                // termination protocol
)

func (p perversePhase) String() string {
	switch p {
	case pvWaitBias:
		return "wait-bias"
	case pvWaitCommit:
		return "wait-commit"
	case pvCollect:
		return "collect"
	case pvWaitAcks:
		return "wait-acks"
	case pvDone:
		return "done"
	case pvTerm:
		return "term"
	default:
		return "invalid"
	}
}

// perverseState is the local state of one Figure 4 processor.
type perverseState struct {
	self      sim.ProcID
	n         int
	input     sim.Bit
	forgetful bool
	phase     perversePhase

	heard procSet
	conj  sim.Bit
	acks  procSet

	biasKnown bool
	bias      bool

	// Race bookkeeping (p0 and p1).
	his        procSet    // greeting senders received
	firstHi    sim.ProcID // sender of the first greeting (valid once his ≠ ∅)
	ackPending bool       // committable bias received, ack awaiting the greetings
	gotDone    bool       // p1 only
	sentM1     bool       // p0 only (forgotten by the forgetful variant)
	m1Known    bool       // p0 only: whether the m1 memory is intact
	sentM2     bool       // p1 only
	gotM2      bool       // p0 only
	sentM3     bool       // p0 only
	dashed     bool       // post-decision dashed/done sends already queued

	out     []outItem
	decided sim.Decision

	fallback
}

var _ sim.State = perverseState{}

// Kind implements sim.State.
func (s perverseState) Kind() sim.StateKind {
	switch {
	case len(s.out) > 0:
		return sim.Sending
	case s.term.sending():
		return sim.Sending
	default:
		return sim.Receiving
	}
}

// Decided implements sim.State.
func (s perverseState) Decided() (sim.Decision, bool) {
	if s.decided == sim.NoDecision {
		return sim.NoDecision, false
	}
	return s.decided, true
}

// Amnesic implements sim.State.
func (s perverseState) Amnesic() bool { return false }

// Key implements sim.State.
func (s perverseState) Key() string {
	// N is fixed at four, so the header carries no n and is spelled out
	// here rather than by appendHeader.
	var scratch [160]byte
	buf := strconv.AppendInt(append(scratch[:0], "pv{p"...), int64(s.self), 10)
	buf = strconv.AppendInt(append(buf, " in"...), int64(s.input), 10)
	buf = append(append(buf, ' '), s.phase.String()...)
	buf = s.heard.appendKey(append(buf, " heard"...))
	buf = strconv.AppendInt(append(buf, " conj"...), int64(s.conj), 10)
	buf = s.acks.appendKey(append(buf, " acks"...))
	if s.biasKnown {
		buf = strconv.AppendBool(append(buf, " bias"...), s.bias)
	}
	buf = s.his.appendKey(append(buf, " his"...))
	if !s.his.empty() {
		buf = strconv.AppendInt(append(buf, " firstp"...), int64(s.firstHi), 10)
	}
	if s.ackPending {
		buf = append(buf, " ackp"...)
	}
	if s.gotDone {
		buf = append(buf, " gdone"...)
	}
	if s.m1Known {
		buf = strconv.AppendBool(append(buf, " m1:"...), s.sentM1)
	}
	if s.sentM2 {
		buf = append(buf, " m2s"...)
	}
	if s.gotM2 {
		buf = append(buf, " m2g"...)
	}
	if s.sentM3 {
		buf = append(buf, " m3s"...)
	}
	if s.dashed {
		buf = append(buf, " dashed"...)
	}
	buf = appendOuts(buf, s.out)
	if s.decided != sim.NoDecision {
		buf = append(append(buf, " dec:"...), s.decided.String()...)
	}
	buf = s.appendKey(buf, s.phase == pvTerm)
	return string(append(buf, '}'))
}

// Init implements sim.Protocol.
func (pv Perverse) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	s := perverseState{self: p, n: n, input: input, conj: input, forgetful: pv.ForgetfulP0}
	switch p {
	case perverseCoord:
		s.phase = pvCollect
	case 0:
		s.phase = pvWaitBias
		s.out = []outItem{
			{to: perverseCoord, payload: valMsg{V: input}},
			{to: 1, payload: hiMsg{}},
		}
	case 1:
		s.phase = pvWaitBias
		s.out = []outItem{
			{to: perverseCoord, payload: valMsg{V: input}},
			{to: 0, payload: hiMsg{}},
		}
	case 3:
		s.phase = pvWaitBias
		s.out = []outItem{
			{to: perverseCoord, payload: valMsg{V: input}},
			{to: 0, payload: hiMsg{}},
			{to: 1, payload: hiMsg{}},
		}
	}
	return s
}

// SendStep implements sim.Protocol.
func (pv Perverse) SendStep(p sim.ProcID, state sim.State) (sim.State, []sim.Envelope) {
	s, ok := state.(perverseState)
	if !ok {
		return state, nil
	}
	switch {
	case len(s.out) > 0:
		item := s.out[0]
		s.out = dropHead(s.out)
		return s, []sim.Envelope{{To: item.to, Payload: item.payload}}
	case s.term.sending():
		var envs []sim.Envelope
		s.fallback, envs = s.send()
		s.decided = s.settle(s.decided)
		return s, envs
	}
	return s, nil
}

// Receive implements sim.Protocol.
func (pv Perverse) Receive(p sim.ProcID, state sim.State, m sim.Message) sim.State {
	s, ok := state.(perverseState)
	if !ok {
		return state
	}
	from := m.ID.From

	if m.Notice || isTermPayload(m.Payload) {
		if s.phase != pvTerm {
			s.phase, s.out = pvTerm, nil
			s.fallback = s.enter(s.self, s.n, s.decided == sim.Commit || (s.biasKnown && s.bias))
		}
		s.fallback = s.absorb(m)
		s.decided = s.settle(s.decided)
		return s
	}
	if s.phase == pvTerm {
		// Late main-protocol messages are ignored; see Tree.Receive.
		return s
	}

	switch pl := m.Payload.(type) {
	case hiMsg:
		if s.his.empty() {
			s.firstHi = from
		}
		s.his = s.his.add(from)
	case doneMsg:
		s.gotDone = true
	case xMsg:
		if pl.ID == 2 && s.self == 0 {
			s.gotM2 = true
		}
		// m1 (at p3) and m3 (at p2) are ignored: the dashed messages
		// serve no purpose.
	case valMsg:
		if s.phase == pvCollect && !s.heard.has(from) {
			s.heard = s.heard.add(from)
			if pl.V == sim.Zero {
				s.conj = sim.Zero
			}
			if s.heard.contains(allProcs(s.n).del(perverseCoord)) {
				s.biasKnown, s.bias = true, s.conj == sim.One
				s.out = broadcastOut(s.out, allProcs(s.n).del(perverseCoord), biasMsg{Committable: s.bias})
				if s.bias {
					s.phase = pvWaitAcks
				} else {
					s.decided = sim.Abort
					s.phase = pvDone
				}
			}
		}
	case biasMsg:
		if s.phase == pvWaitBias {
			s.biasKnown, s.bias = true, pl.Committable
			if pl.Committable {
				// The acknowledgement is gated on the greetings so
				// that its causal past is the same fixed set in
				// every failure-free execution; only the dashed
				// messages may vary (exactly four patterns).
				s.ackPending = true
				s.phase = pvWaitCommit
			} else {
				s.decided = sim.Abort
				s.phase = pvDone
			}
		}
	case ackMsg:
		if s.phase == pvWaitAcks && !s.acks.has(from) {
			s.acks = s.acks.add(from)
			if s.acks.contains(allProcs(s.n).del(perverseCoord)) {
				s.decided = sim.Commit
				s.phase = pvDone
				s.out = broadcastOut(s.out, allProcs(s.n).del(perverseCoord), decisionMsg{D: sim.Commit})
			}
		}
	case decisionMsg:
		if s.phase == pvWaitCommit && pl.D == sim.Commit {
			s.decided = sim.Commit
			s.phase = pvDone
		}
	}
	return s.maybeDashed()
}

// needHis returns the greeting senders this processor races on.
func (s perverseState) needHis() procSet {
	switch s.self {
	case 0:
		return bit(1).add(3)
	case 1:
		return bit(0).add(3)
	default:
		return procSet{}
	}
}

// maybeDashed releases the greeting-gated sends once their preconditions
// hold: the acknowledgement, the dashed messages, and p0's done marker.
func (s perverseState) maybeDashed() sim.State {
	bothHis := s.his.contains(s.needHis())
	if s.ackPending && bothHis {
		s.ackPending = false
		s.out = appendOut(s.out, outItem{to: perverseCoord, payload: ackMsg{}})
	}
	switch s.self {
	case 0:
		if !s.dashed && s.decided != sim.NoDecision && s.phase == pvDone && bothHis {
			s.dashed = true
			s.m1Known = true
			if s.firstHi == 1 {
				// m1: sent iff p1's greeting beat p3's.
				s.sentM1 = true
				s.out = appendOut(s.out, outItem{to: 3, payload: xMsg{ID: 1}})
			}
			if s.forgetful {
				// The amnesic p0 forgets whether it sent m1.
				s.m1Known = false
				s.sentM1 = false
			}
			s.out = appendOut(s.out, outItem{to: 1, payload: doneMsg{}})
		}
		if s.gotM2 && !s.sentM3 && s.dashed {
			send := false
			if s.m1Known {
				// m3: sent iff both m1 and m2 were sent.
				send = s.sentM1
			} else {
				// A forgetful p0 cannot condition on m1; it must
				// behave uniformly. It always sends m3.
				send = true
			}
			if send {
				s.sentM3 = true
				s.out = appendOut(s.out, outItem{to: perverseCoord, payload: xMsg{ID: 3}})
			} else {
				s.sentM3 = true // resolved: never send
			}
		}
	case 1:
		if !s.dashed && s.decided != sim.NoDecision && s.phase == pvDone && bothHis && s.gotDone {
			s.dashed = true
			if s.firstHi == 0 {
				// m2: sent iff p0's greeting beat p3's.
				s.sentM2 = true
				s.out = appendOut(s.out, outItem{to: 0, payload: xMsg{ID: 2}})
			}
		}
	}
	return s
}
