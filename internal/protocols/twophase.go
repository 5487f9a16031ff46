package protocols

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// TwoPhaseCommit is classic two-phase commit ([Gr], the paper's
// transaction-commitment citation): participants vote, the coordinator
// decides the unanimity outcome and broadcasts the decision, and
// participants decide on receipt. Failure detection falls back to the
// Appendix termination protocol.
//
// Classic 2PC is the canonical *blocking* protocol: a participant that has
// voted yes and is awaiting the decision has both commit and abort in its
// concurrency set — an unsafe state in the sense of Theorem 2. The protocol
// therefore satisfies only interactive consistency (WT-IC): if the
// coordinator decides commit and fails before the decision reaches anyone,
// the survivors — all noncommittable — abort, violating total consistency.
// The model checker exhibits exactly this run; AckCommit's extra
// acknowledgement phase is what removes it.
type TwoPhaseCommit struct {
	// Procs is the number of processors (≥ 2); p0 coordinates.
	Procs int
}

var _ sim.Protocol = TwoPhaseCommit{}

// Name implements sim.Protocol.
func (t TwoPhaseCommit) Name() string { return fmt.Sprintf("2pc(N=%d)", t.Procs) }

// N implements sim.Protocol.
func (t TwoPhaseCommit) N() int { return t.Procs }

type tpcPhase int

const (
	tpcCollect tpcPhase = iota + 1
	tpcWaitDecision
	tpcDone
	tpcTerm
)

func (p tpcPhase) String() string {
	switch p {
	case tpcCollect:
		return "collect"
	case tpcWaitDecision:
		return "wait-decision"
	case tpcDone:
		return "done"
	case tpcTerm:
		return "term"
	default:
		return "invalid"
	}
}

// tpcState is the local state of one 2PC processor.
type tpcState struct {
	self  sim.ProcID
	n     int
	input sim.Bit
	phase tpcPhase

	heard   procSet
	conj    sim.Bit
	anyFail bool

	out     []outItem
	decided sim.Decision

	fallback
}

var _ sim.State = tpcState{}

// Kind implements sim.State.
func (s tpcState) Kind() sim.StateKind {
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
func (s tpcState) Decided() (sim.Decision, bool) {
	if s.decided == sim.NoDecision {
		return sim.NoDecision, false
	}
	return s.decided, true
}

// Amnesic implements sim.State.
func (s tpcState) Amnesic() bool { return false }

// Key implements sim.State.
func (s tpcState) Key() string {
	var scratch [128]byte
	buf := appendHeader(scratch[:0], "2pc", s.self, s.n, s.input, s.phase.String())
	buf = s.heard.appendKey(append(buf, " heard"...))
	buf = strconv.AppendInt(append(buf, " conj"...), int64(s.conj), 10)
	if s.anyFail {
		buf = append(buf, " fail"...)
	}
	buf = appendOuts(buf, s.out)
	if s.decided != sim.NoDecision {
		buf = append(append(buf, " dec:"...), s.decided.String()...)
	}
	buf = s.appendKey(buf, s.phase == tpcTerm)
	return string(append(buf, '}'))
}

// Init implements sim.Protocol.
func (t TwoPhaseCommit) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	s := tpcState{self: p, n: n, input: input, conj: input}
	if p == 0 {
		s.phase = tpcCollect
		if n == 1 {
			s.decided = sim.DecisionFor(input)
			s.phase = tpcDone
		}
	} else {
		s.phase = tpcWaitDecision
		s.out = []outItem{{to: 0, payload: valMsg{V: input}}}
	}
	return s
}

// SendStep implements sim.Protocol.
func (t TwoPhaseCommit) SendStep(p sim.ProcID, state sim.State) (sim.State, []sim.Envelope) {
	s, ok := state.(tpcState)
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
func (t TwoPhaseCommit) Receive(p sim.ProcID, state sim.State, m sim.Message) sim.State {
	s, ok := state.(tpcState)
	if !ok {
		return state
	}
	from := m.ID.From

	if m.Notice || isTermPayload(m.Payload) {
		if s.phase != tpcTerm {
			s.phase, s.out = tpcTerm, nil
			s.fallback = s.enter(s.self, s.n, s.decided == sim.Commit)
		}
		s.fallback = s.absorb(m)
		s.decided = s.settle(s.decided)
		return s
	}

	switch s.phase {
	case tpcCollect:
		if v, ok := m.Payload.(valMsg); ok && !s.heard.has(from) {
			s.heard = s.heard.add(from)
			if v.V == sim.Zero {
				s.conj = sim.Zero
			}
			if s.heard.contains(allProcs(s.n).del(0)) {
				s.decided = sim.DecisionFor(s.conj)
				s.phase = tpcDone
				s.out = broadcastOut(s.out, allProcs(s.n).del(0), decisionMsg{D: s.decided})
			}
		}
	case tpcWaitDecision:
		if d, ok := m.Payload.(decisionMsg); ok {
			s.decided = d.D
			s.phase = tpcDone
		}
	case tpcDone:
		// Decided processors keep listening (weak termination).
	case tpcTerm:
		// Late main-protocol messages are ignored; see Tree.Receive.
	}
	return s
}
