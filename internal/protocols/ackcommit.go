package protocols

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// AckCommit is a star-shaped WT-TC commit protocol for arbitrary N — the
// depth-one instance of Figure 1's tree scheme, and the core idea of
// nonblocking (three-phase) commit: no processor decides commit until every
// processor has acknowledged the committable bias, so every accessible state
// is safe in the sense of Theorem 2.
//
// Phase 1: participants send their inputs to the coordinator p0, which sets
// bias committable iff every input (including its own) is 1 and sends the
// bias to every participant whose input was 1 (participants with input 0
// abort immediately after voting, and receive nothing — Figure 1's starred
// rule). A noncommittable bias makes everyone abort.
//
// Phase 2: participants acknowledge the committable bias; after all
// acknowledgements the coordinator decides commit and broadcasts commit.
//
// Failures divert processors into the Appendix termination protocol.
type AckCommit struct {
	// Procs is the number of processors (≥ 2).
	Procs int
}

var _ sim.Protocol = AckCommit{}

// Name implements sim.Protocol.
func (a AckCommit) Name() string { return fmt.Sprintf("ackcommit(N=%d)", a.Procs) }

// N implements sim.Protocol.
func (a AckCommit) N() int { return a.Procs }

type ackPhase int

const (
	ackCollect    ackPhase = iota + 1 // coordinator gathering votes
	ackWaitAcks                       // coordinator awaiting acknowledgements
	ackWaitBias                       // participant awaiting the bias
	ackWaitCommit                     // participant acked, awaiting commit
	ackDone                           // decided (keeps listening: WT)
	ackTerm                           // termination protocol
)

func (p ackPhase) String() string {
	switch p {
	case ackCollect:
		return "collect"
	case ackWaitAcks:
		return "wait-acks"
	case ackWaitBias:
		return "wait-bias"
	case ackWaitCommit:
		return "wait-commit"
	case ackDone:
		return "done"
	case ackTerm:
		return "term"
	default:
		return "invalid"
	}
}

// ackState is the local state of one AckCommit processor.
type ackState struct {
	self  sim.ProcID
	n     int
	input sim.Bit
	phase ackPhase

	heard     procSet
	conj      sim.Bit
	zeros     procSet // participants that voted 0 (skipped for bias)
	acks      procSet
	biasKnown bool
	bias      bool

	out       []outItem
	afterSend sim.Decision
	decided   sim.Decision

	fallback
}

var _ sim.State = ackState{}

// Kind implements sim.State.
func (s ackState) Kind() sim.StateKind {
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
func (s ackState) Decided() (sim.Decision, bool) {
	if s.decided == sim.NoDecision {
		return sim.NoDecision, false
	}
	return s.decided, true
}

// Amnesic implements sim.State.
func (s ackState) Amnesic() bool { return false }

// Key implements sim.State.
func (s ackState) Key() string {
	var scratch [128]byte
	buf := appendHeader(scratch[:0], "ack", s.self, s.n, s.input, s.phase.String())
	buf = s.heard.appendKey(append(buf, " heard"...))
	buf = strconv.AppendInt(append(buf, " conj"...), int64(s.conj), 10)
	buf = s.zeros.appendKey(append(buf, " z"...))
	buf = s.acks.appendKey(append(buf, " acks"...))
	if s.biasKnown {
		buf = strconv.AppendBool(append(buf, " bias"...), s.bias)
	}
	buf = appendOuts(buf, s.out)
	if s.afterSend != sim.NoDecision {
		buf = append(append(buf, " after:"...), s.afterSend.String()...)
	}
	if s.decided != sim.NoDecision {
		buf = append(append(buf, " dec:"...), s.decided.String()...)
	}
	buf = s.appendKey(buf, s.phase == ackTerm)
	return string(append(buf, '}'))
}

// Init implements sim.Protocol.
func (a AckCommit) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	s := ackState{self: p, n: n, input: input, conj: input}
	if p == 0 {
		s.phase = ackCollect
		if n == 1 {
			s.decided = sim.DecisionFor(input)
			s.phase = ackDone
		}
		return s
	}
	s.out = []outItem{{to: 0, payload: valMsg{V: input}}}
	if input == sim.Zero {
		// A participant voting 0 knows the bias is noncommittable; it
		// aborts right after voting and receives no bias message.
		s.phase = ackDone
		s.afterSend = sim.Abort
	} else {
		s.phase = ackWaitBias
	}
	return s
}

// SendStep implements sim.Protocol.
func (a AckCommit) SendStep(p sim.ProcID, state sim.State) (sim.State, []sim.Envelope) {
	s, ok := state.(ackState)
	if !ok {
		return state, nil
	}
	switch {
	case len(s.out) > 0:
		item := s.out[0]
		s.out = dropHead(s.out)
		if len(s.out) == 0 && s.afterSend != sim.NoDecision {
			s.decided = s.afterSend
			s.afterSend = sim.NoDecision
			if s.phase != ackTerm {
				s.phase = ackDone
			}
		}
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
func (a AckCommit) Receive(p sim.ProcID, state sim.State, m sim.Message) sim.State {
	s, ok := state.(ackState)
	if !ok {
		return state
	}
	from := m.ID.From

	if m.Notice || isTermPayload(m.Payload) {
		if s.phase != ackTerm {
			s.phase, s.out, s.afterSend = ackTerm, nil, sim.NoDecision
			s.fallback = s.enter(s.self, s.n, s.decided == sim.Commit || (s.biasKnown && s.bias))
		}
		s.fallback = s.absorb(m)
		s.decided = s.settle(s.decided)
		return s
	}
	if s.phase == ackTerm {
		// Late main-protocol messages are ignored; see Tree.Receive.
		return s
	}

	switch pl := m.Payload.(type) {
	case valMsg:
		if s.phase == ackCollect && !s.heard.has(from) {
			s.heard = s.heard.add(from)
			if pl.V == sim.Zero {
				s.conj = sim.Zero
				s.zeros = s.zeros.add(from)
			}
			if s.heard.contains(allProcs(s.n).del(0)) {
				s.biasKnown, s.bias = true, s.conj == sim.One
				to := allProcs(s.n).del(0)
				if !s.bias {
					to = to.minus(s.zeros)
				}
				s.out = broadcastOut(s.out, to, biasMsg{Committable: s.bias})
				if s.bias {
					s.phase = ackWaitAcks
				} else if len(s.out) == 0 {
					s.decided = sim.Abort
					s.phase = ackDone
				} else {
					s.afterSend = sim.Abort
				}
			}
		}
	case biasMsg:
		if s.phase == ackWaitBias {
			s.biasKnown, s.bias = true, pl.Committable
			if pl.Committable {
				s.out = appendOut(s.out, outItem{to: 0, payload: ackMsg{}})
				s.phase = ackWaitCommit
			} else {
				s.decided = sim.Abort
				s.phase = ackDone
			}
		}
	case ackMsg:
		if s.phase == ackWaitAcks && !s.acks.has(from) {
			s.acks = s.acks.add(from)
			if s.acks.contains(allProcs(s.n).del(0)) {
				// Every participant is committable: the
				// coordinator decides commit and broadcasts it.
				s.decided = sim.Commit
				s.phase = ackDone
				s.out = broadcastOut(s.out, allProcs(s.n).del(0), decisionMsg{D: sim.Commit})
			}
		}
	case decisionMsg:
		if s.phase == ackWaitCommit && pl.D == sim.Commit {
			s.decided = sim.Commit
			s.phase = ackDone
		}
	}
	return s
}
