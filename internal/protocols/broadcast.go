package protocols

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// Broadcast is reliable broadcast under fail-stop failures — the fail-stop
// incarnation of the Byzantine Generals problem mentioned in the paper's
// introduction ([SGS], [PSL]) — with the weak broadcast decision rule:
// decide v only if the general's initial value is v, with a default decision
// of 0 permitted when the general is faulty.
//
// The general p0 decides its own input immediately and broadcasts it; every
// processor relays the first value it learns to all other participants
// before deciding it, so that a value received by any nonfaulty processor
// reaches all of them. Failure detection diverts processors into the
// Appendix termination protocol with bias committable iff they hold the
// value 1; the termination decision is then 1 iff committable, 0 otherwise
// (the weak rule's default).
//
// The protocol establishes WT-IC for the broadcast rule. It does not halt
// (weak termination only), matching the cost-reduction motivation of [SGS].
type Broadcast struct {
	// Procs is the number of processors (≥ 2); p0 is the general.
	Procs int
}

var _ sim.Protocol = Broadcast{}

// Name implements sim.Protocol.
func (b Broadcast) Name() string { return fmt.Sprintf("broadcast(N=%d)", b.Procs) }

// N implements sim.Protocol.
func (b Broadcast) N() int { return b.Procs }

type bcastPhase int

const (
	bcastWait bcastPhase = iota + 1 // awaiting the general's value
	bcastDone                       // decided (keeps listening: WT)
	bcastTerm                       // termination protocol
)

func (p bcastPhase) String() string {
	switch p {
	case bcastWait:
		return "wait"
	case bcastDone:
		return "done"
	case bcastTerm:
		return "term"
	default:
		return "invalid"
	}
}

// bcastState is the local state of one Broadcast processor.
type bcastState struct {
	self  sim.ProcID
	n     int
	input sim.Bit
	phase bcastPhase

	haveValue bool
	value     sim.Bit

	out     []outItem
	decided sim.Decision

	fallback
}

var _ sim.State = bcastState{}

// Kind implements sim.State.
func (s bcastState) Kind() sim.StateKind {
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
func (s bcastState) Decided() (sim.Decision, bool) {
	if s.decided == sim.NoDecision {
		return sim.NoDecision, false
	}
	return s.decided, true
}

// Amnesic implements sim.State.
func (s bcastState) Amnesic() bool { return false }

// Key implements sim.State.
func (s bcastState) Key() string {
	var scratch [128]byte
	buf := appendHeader(scratch[:0], "bc", s.self, s.n, s.input, s.phase.String())
	if s.haveValue {
		buf = strconv.AppendInt(append(buf, " v"...), int64(s.value), 10)
	}
	buf = appendOuts(buf, s.out)
	if s.decided != sim.NoDecision {
		buf = append(append(buf, " dec:"...), s.decided.String()...)
	}
	buf = s.appendKey(buf, s.phase == bcastTerm)
	return string(append(buf, '}'))
}

// Init implements sim.Protocol.
func (b Broadcast) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	s := bcastState{self: p, n: n, input: input}
	if p == 0 {
		// The general knows the value: it decides and broadcasts.
		s.haveValue, s.value = true, input
		s.decided = sim.DecisionFor(input)
		s.phase = bcastDone
		s.out = broadcastOut(s.out, allProcs(n).del(0), valMsg{V: input})
	} else {
		s.phase = bcastWait
	}
	return s
}

// SendStep implements sim.Protocol.
func (b Broadcast) SendStep(p sim.ProcID, state sim.State) (sim.State, []sim.Envelope) {
	s, ok := state.(bcastState)
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
func (b Broadcast) Receive(p sim.ProcID, state sim.State, m sim.Message) sim.State {
	s, ok := state.(bcastState)
	if !ok {
		return state
	}
	from := m.ID.From

	if m.Notice || isTermPayload(m.Payload) {
		if s.phase != bcastTerm {
			// Committable iff the processor holds the value 1.
			s.phase, s.out = bcastTerm, nil
			s.fallback = s.enter(s.self, s.n, s.haveValue && s.value == sim.One)
		}
		s.fallback = s.absorb(m)
		s.decided = s.settle(s.decided)
		return s
	}

	switch s.phase {
	case bcastWait:
		if v, ok := m.Payload.(valMsg); ok {
			// Relay the value to every other participant, then
			// decide it.
			s.haveValue, s.value = true, v.V
			s.decided = sim.DecisionFor(v.V)
			s.phase = bcastDone
			s.out = broadcastOut(s.out, allProcs(s.n).del(0).del(s.self).del(from), valMsg{V: v.V})
		}
	case bcastDone:
		// Duplicate relayed values are ignored.
	case bcastTerm:
		// Late relayed values are ignored; a holder of the value 1 is
		// committable at termination entry and spreads it through the
		// round exchange. See Tree.Receive.
	}
	return s
}
