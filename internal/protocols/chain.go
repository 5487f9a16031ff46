package protocols

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// Chain is the WT-IC protocol of Figure 3 (presented in the proof of
// Theorem 13): each p_i, 1 ≤ i < N, sends its input to p0; p0 tallies the
// inputs, including its own, decides, and sends the decision to p1; p1
// decides accordingly and forwards the decision to p2, and so on, until the
// decision reaches p_{N−1}, which simply decides. No processor halts.
//
// On detecting a failure, processors fall back to the Appendix termination
// protocol carrying their current bias. The protocol satisfies interactive
// consistency but not total consistency: p0 decides before any other
// processor shares its bias (violating Corollary 6), and its single
// failure-free communication pattern cannot support strong termination
// (Theorem 13's first half).
type Chain struct {
	// Procs is the number of processors (≥ 2).
	Procs int
	// ST selects the strongly terminating variant used in the proof of
	// Theorem 13: processors become amnesic as soon as they decide,
	// keeping no record of the processing involved, and announce their
	// amnesia when they detect a failure. The variant is deliberately
	// INCORRECT — Theorem 13 proves the chain pattern cannot support
	// ST-IC — and the model checker exhibits the violation.
	ST bool
}

var _ sim.Protocol = Chain{}

// Name implements sim.Protocol.
func (c Chain) Name() string {
	if c.ST {
		return fmt.Sprintf("chain-st(N=%d)", c.Procs)
	}
	return fmt.Sprintf("chain(N=%d)", c.Procs)
}

// N implements sim.Protocol.
func (c Chain) N() int { return c.Procs }

type chainPhase int

const (
	chainCollect      chainPhase = iota + 1 // p0 tallying inputs
	chainWaitDecision                       // p_i awaiting the decision
	chainDone                               // decided (keeps listening: WT)
	chainTerm                               // termination protocol
	chainAmnesic                            // ST variant: decision forgotten
)

func (p chainPhase) String() string {
	switch p {
	case chainCollect:
		return "collect"
	case chainWaitDecision:
		return "wait-decision"
	case chainDone:
		return "done"
	case chainTerm:
		return "term"
	case chainAmnesic:
		return "amnesic"
	default:
		return "invalid"
	}
}

// chainState is the local state of one Figure 3 processor.
type chainState struct {
	self  sim.ProcID
	n     int
	input sim.Bit
	phase chainPhase

	st bool // ST variant

	heard   procSet
	conj    sim.Bit
	anyFail bool

	out     []outItem
	decided sim.Decision
	amnesic bool

	removed     procSet
	term        termCore
	amnesicSent bool
	amnOut      procSet
}

// pendingAmnesia reports whether the ST variant owes a transition from the
// decision state into the amnesic state.
func (s chainState) pendingAmnesia() bool {
	return s.st && s.decided != sim.NoDecision && !s.amnesic
}

var _ sim.State = chainState{}

// Kind implements sim.State.
func (s chainState) Kind() sim.StateKind {
	switch {
	case !s.amnOut.empty():
		return sim.Sending
	case len(s.out) > 0:
		return sim.Sending
	case s.phase == chainTerm && s.term.sending():
		return sim.Sending
	case s.pendingAmnesia():
		return sim.Sending // null send into the amnesic state
	default:
		return sim.Receiving
	}
}

// Decided implements sim.State.
func (s chainState) Decided() (sim.Decision, bool) {
	if s.amnesic || s.decided == sim.NoDecision {
		return sim.NoDecision, false
	}
	return s.decided, true
}

// Amnesic implements sim.State.
func (s chainState) Amnesic() bool { return s.amnesic }

// Key implements sim.State.
func (s chainState) Key() string {
	var scratch [128]byte
	buf := appendHeader(scratch[:0], "chain", s.self, s.n, s.input, s.phase.String())
	buf = s.heard.appendKey(append(buf, " heard"...))
	buf = strconv.AppendInt(append(buf, " conj"...), int64(s.conj), 10)
	if s.anyFail {
		buf = append(buf, " fail"...)
	}
	buf = appendOuts(buf, s.out)
	if s.decided != sim.NoDecision {
		buf = append(append(buf, " dec:"...), s.decided.String()...)
	}
	if s.amnesic {
		buf = append(buf, " amnesic"...)
	}
	buf = s.removed.appendKey(append(buf, " rm"...))
	if s.phase == chainTerm {
		buf = append(s.term.appendKey(append(buf, " ["...)), ']')
	}
	if s.amnesicSent {
		buf = append(buf, " asent"...)
	}
	if !s.amnOut.empty() {
		buf = s.amnOut.appendKey(append(buf, " aout"...))
	}
	return string(append(buf, '}'))
}

// Init implements sim.Protocol.
func (c Chain) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	s := chainState{self: p, n: n, input: input, conj: input, st: c.ST}
	if p == 0 {
		s.phase = chainCollect
		if n == 1 {
			s.decided = sim.DecisionFor(input)
			s.phase = chainDone
		}
	} else {
		s.phase = chainWaitDecision
		s.out = []outItem{{to: 0, payload: valMsg{V: input}}}
	}
	return s
}

// SendStep implements sim.Protocol.
func (c Chain) SendStep(p sim.ProcID, state sim.State) (sim.State, []sim.Envelope) {
	s, ok := state.(chainState)
	if !ok {
		return state, nil
	}
	switch {
	case !s.amnOut.empty():
		to := s.amnOut.lowest()
		s.amnOut = s.amnOut.del(to)
		if s.amnOut.empty() {
			s.amnesicSent = true
		}
		return s, []sim.Envelope{{To: to, Payload: amnesicMsg{}}}
	case len(s.out) > 0:
		item := s.out[0]
		s.out = append([]outItem(nil), s.out[1:]...)
		return s, []sim.Envelope{{To: item.to, Payload: item.payload}}
	case s.phase == chainTerm && s.term.sending():
		core, env := s.term.sendStep()
		s.term = core
		if s.term.done && s.decided == sim.NoDecision {
			s.decided = s.term.decision()
		}
		return s, []sim.Envelope{env}
	case s.pendingAmnesia():
		// The null sending step into the amnesic state: everything is
		// forgotten except the protocol identity, the failure
		// bookkeeping, and the fact that a decision was made.
		return chainState{
			self:        s.self,
			n:           s.n,
			st:          s.st,
			phase:       chainAmnesic,
			amnesic:     true,
			removed:     s.removed,
			amnesicSent: s.amnesicSent,
		}, nil
	}
	return s, nil
}

// Receive implements sim.Protocol.
func (c Chain) Receive(p sim.ProcID, state sim.State, m sim.Message) sim.State {
	s, ok := state.(chainState)
	if !ok {
		return state
	}
	from := m.ID.From

	// Amnesic processors only react by announcing their amnesia once,
	// when they learn that a failure was detected.
	if s.amnesic {
		if (m.Notice || isTermPayload(m.Payload)) && !s.amnesicSent && s.amnOut.empty() {
			if m.Notice {
				s.removed = s.removed.add(from)
			}
			s.amnOut = allProcs(s.n).del(s.self).minus(s.removed)
			if s.amnOut.empty() {
				s.amnesicSent = true
			}
		} else if m.Notice {
			s.removed = s.removed.add(from)
		}
		return s
	}

	// Failure detection (or termination-protocol traffic) moves any
	// non-terminated phase into the termination protocol.
	if m.Notice || isTermPayload(m.Payload) {
		if s.phase != chainTerm {
			s = s.enterChainTerm()
		}
		switch {
		case m.Notice:
			s.removed = s.removed.add(from)
			s.term = s.term.onRemoved(from)
		default:
			switch pl := m.Payload.(type) {
			case termMsg:
				s.term = s.term.onTermMsg(from, pl)
			case amnesicMsg:
				s.removed = s.removed.add(from)
				s.term = s.term.onRemoved(from)
			}
		}
		if s.term.done && s.decided == sim.NoDecision {
			s.decided = s.term.decision()
		}
		return s
	}

	switch s.phase {
	case chainCollect:
		if v, ok := m.Payload.(valMsg); ok && !s.heard.has(from) {
			s.heard = s.heard.add(from)
			if v.V == sim.Zero {
				s.conj = sim.Zero
			}
			if s.heard.contains(allProcs(s.n).del(0)) {
				// p0 tallies the inputs, including its own,
				// decides, and sends the decision to p1.
				s.decided = sim.DecisionFor(s.conj)
				s.phase = chainDone
				if s.n > 1 {
					s.out = []outItem{{to: 1, payload: decisionMsg{D: s.decided}}}
				}
			}
		}
	case chainWaitDecision:
		if d, ok := m.Payload.(decisionMsg); ok {
			s.decided = d.D
			s.phase = chainDone
			if next := s.self + 1; int(next) < s.n {
				s.out = []outItem{{to: next, payload: decisionMsg{D: d.D}}}
			}
		}
	case chainDone:
		// Decided processors keep listening (weak termination) but
		// ignore stray main-protocol messages.
	case chainTerm:
		// Late main-protocol messages are ignored; see Tree.Receive.
	}
	return s
}

// enterChainTerm switches into the Appendix termination protocol carrying
// the current bias: committable iff the processor has decided commit (only
// p0's tally or a received decision prove that every input is 1).
func (s chainState) enterChainTerm() chainState {
	s.phase = chainTerm
	s.out = nil
	up := allProcs(s.n).minus(s.removed)
	s.term = newTermCore(s.self, s.n, s.decided == sim.Commit, up)
	if s.term.done && s.decided == sim.NoDecision {
		s.decided = s.term.decision()
	}
	return s
}
