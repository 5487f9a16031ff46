package protocols

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// FullExchange is the naive decentralized unanimity protocol: every
// processor broadcasts its input to every other processor and decides the
// conjunction once all inputs are in, falling back to the termination
// protocol on failure detection.
//
// It is a deliberate negative witness for Theorem 2: a processor that has
// decided commit can be concurrent with a processor that still lacks some
// inputs, whose state therefore does not imply that every input is 1 — an
// unsafe state. The corresponding total-consistency violation is realized
// when the decided processor fails and the lagging processor, left alone,
// must abort. The protocol does satisfy interactive consistency, making it a
// useful WT-IC baseline with O(N²) messages.
type FullExchange struct {
	// Procs is the number of processors (≥ 2).
	Procs int
}

var _ sim.Protocol = FullExchange{}

// Name implements sim.Protocol.
func (f FullExchange) Name() string { return fmt.Sprintf("fullexchange(N=%d)", f.Procs) }

// N implements sim.Protocol.
func (f FullExchange) N() int { return f.Procs }

type fxPhase int

const (
	fxGather fxPhase = iota + 1
	fxDone
	fxTerm
)

func (p fxPhase) String() string {
	switch p {
	case fxGather:
		return "gather"
	case fxDone:
		return "done"
	case fxTerm:
		return "term"
	default:
		return "invalid"
	}
}

// fxState is the local state of one FullExchange processor.
type fxState struct {
	self  sim.ProcID
	n     int
	input sim.Bit
	phase fxPhase

	heard procSet
	conj  sim.Bit

	out     []outItem
	decided sim.Decision

	fallback
}

var _ sim.State = fxState{}

// Kind implements sim.State.
func (s fxState) Kind() sim.StateKind {
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
func (s fxState) Decided() (sim.Decision, bool) {
	if s.decided == sim.NoDecision {
		return sim.NoDecision, false
	}
	return s.decided, true
}

// Amnesic implements sim.State.
func (s fxState) Amnesic() bool { return false }

// Key implements sim.State.
func (s fxState) Key() string {
	var scratch [128]byte
	buf := appendHeader(scratch[:0], "fx", s.self, s.n, s.input, s.phase.String())
	buf = s.heard.appendKey(append(buf, " heard"...))
	buf = strconv.AppendInt(append(buf, " conj"...), int64(s.conj), 10)
	buf = appendOuts(buf, s.out)
	if s.decided != sim.NoDecision {
		buf = append(append(buf, " dec:"...), s.decided.String()...)
	}
	buf = s.appendKey(buf, s.phase == fxTerm)
	return string(append(buf, '}'))
}

// Init implements sim.Protocol.
func (f FullExchange) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	s := fxState{self: p, n: n, input: input, conj: input, phase: fxGather}
	s.out = broadcastOut(s.out, allProcs(n).del(p), valMsg{V: input})
	if n == 1 {
		s.decided = sim.DecisionFor(input)
		s.phase = fxDone
	}
	return s
}

// SendStep implements sim.Protocol.
func (f FullExchange) SendStep(p sim.ProcID, state sim.State) (sim.State, []sim.Envelope) {
	s, ok := state.(fxState)
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
func (f FullExchange) Receive(p sim.ProcID, state sim.State, m sim.Message) sim.State {
	s, ok := state.(fxState)
	if !ok {
		return state
	}
	from := m.ID.From

	if m.Notice || isTermPayload(m.Payload) {
		if s.phase != fxTerm {
			// Committable iff the processor has decided commit: the
			// only way it can know all inputs are 1 is to have
			// gathered them all.
			s.phase, s.out = fxTerm, nil
			s.fallback = s.enter(s.self, s.n, s.decided == sim.Commit)
		}
		s.fallback = s.absorb(m)
		s.decided = s.settle(s.decided)
		return s
	}

	switch s.phase {
	case fxGather:
		if v, ok := m.Payload.(valMsg); ok && !s.heard.has(from) {
			s.heard = s.heard.add(from)
			if v.V == sim.Zero {
				s.conj = sim.Zero
			}
			if s.heard.contains(allProcs(s.n).del(s.self)) {
				s.decided = sim.DecisionFor(s.conj)
				s.phase = fxDone
			}
		}
	case fxDone:
		// Late inputs are ignored.
	case fxTerm:
		// Late main-protocol messages are ignored; see Tree.Receive.
	}
	return s
}
