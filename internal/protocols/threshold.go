package protocols

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// ThresholdCommit generalizes AckCommit from the unanimity rule to the
// threshold-k rule of Section 2: decide 1 only if at least K processors
// have initial value 1 (and 0 only if fewer do, or a failure occurs). The
// structure is the same safe two-phase discipline — the coordinator tallies
// votes, distributes the bias, collects acknowledgements from everyone, and
// only then decides commit — so whenever a processor has decided, every
// processor shares its bias, and the Appendix termination protocol resolves
// failures consistently.
//
// With K = N the protocol coincides with AckCommit's rule (unanimity); the
// point of the type is that the taxonomy's decision-rule axis is genuinely
// pluggable: ThresholdCommit{Procs: n, K: k} solves WT-TC under
// taxonomy.ThresholdRule{K: k}.
type ThresholdCommit struct {
	// Procs is the number of processors (≥ 2); p0 coordinates.
	Procs int
	// K is the commit threshold, 1 ≤ K ≤ Procs.
	K int
}

var _ sim.Protocol = ThresholdCommit{}

// Name implements sim.Protocol.
func (t ThresholdCommit) Name() string {
	return fmt.Sprintf("threshold(N=%d,K=%d)", t.Procs, t.K)
}

// N implements sim.Protocol.
func (t ThresholdCommit) N() int { return t.Procs }

// thState is the local state of one ThresholdCommit processor. Unlike the
// unanimity protocols, 0-voters cannot abort unilaterally (the tally may
// still reach K), so every participant waits for the bias.
type thState struct {
	self  sim.ProcID
	n     int
	k     int
	input sim.Bit
	phase ackPhase // reuses AckCommit's phase vocabulary

	heard procSet
	ones  int
	acks  procSet

	biasKnown bool
	bias      bool

	out     []outItem
	decided sim.Decision

	removed procSet
	term    termCore
}

var _ sim.State = thState{}

// Kind implements sim.State.
func (s thState) Kind() sim.StateKind {
	switch {
	case len(s.out) > 0:
		return sim.Sending
	case s.phase == ackTerm && s.term.sending():
		return sim.Sending
	default:
		return sim.Receiving
	}
}

// Decided implements sim.State.
func (s thState) Decided() (sim.Decision, bool) {
	if s.decided == sim.NoDecision {
		return sim.NoDecision, false
	}
	return s.decided, true
}

// Amnesic implements sim.State.
func (s thState) Amnesic() bool { return false }

// Key implements sim.State.
func (s thState) Key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "th{%s n%d k%d in%d %s heard%s ones%d acks%s",
		s.self, s.n, s.k, s.input, s.phase, s.heard.key(), s.ones, s.acks.key())
	if s.biasKnown {
		fmt.Fprintf(&sb, " bias%v", s.bias)
	}
	for _, o := range s.out {
		fmt.Fprintf(&sb, " →%s:%s", o.to, o.payload.Key())
	}
	if s.decided != sim.NoDecision {
		fmt.Fprintf(&sb, " dec:%s", s.decided)
	}
	fmt.Fprintf(&sb, " rm%s", s.removed.key())
	if s.phase == ackTerm {
		fmt.Fprintf(&sb, " [%s]", s.term.key())
	}
	sb.WriteString("}")
	return sb.String()
}

// Init implements sim.Protocol.
func (t ThresholdCommit) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	s := thState{self: p, n: n, k: t.K, input: input}
	if input == sim.One {
		s.ones = 1
	}
	if p == 0 {
		s.phase = ackCollect
		if n == 1 {
			if s.ones >= t.K {
				s.decided = sim.Commit
			} else {
				s.decided = sim.Abort
			}
			s.phase = ackDone
		}
		return s
	}
	s.out = []outItem{{to: 0, payload: valMsg{V: input}}}
	s.phase = ackWaitBias
	return s
}

// SendStep implements sim.Protocol.
func (t ThresholdCommit) SendStep(p sim.ProcID, state sim.State) (sim.State, []sim.Envelope) {
	s, ok := state.(thState)
	if !ok {
		return state, nil
	}
	switch {
	case len(s.out) > 0:
		item := s.out[0]
		s.out = dropHead(s.out)
		return s, []sim.Envelope{{To: item.to, Payload: item.payload}}
	case s.phase == ackTerm && s.term.sending():
		core, env := s.term.sendStep()
		s.term = core
		if s.term.done && s.decided == sim.NoDecision {
			s.decided = s.term.decision()
		}
		return s, []sim.Envelope{env}
	}
	return s, nil
}

// Receive implements sim.Protocol.
func (t ThresholdCommit) Receive(p sim.ProcID, state sim.State, m sim.Message) sim.State {
	s, ok := state.(thState)
	if !ok {
		return state
	}
	from := m.ID.From

	if m.Notice || isTermPayload(m.Payload) {
		if s.phase != ackTerm {
			s = s.enterThTerm()
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

	switch pl := m.Payload.(type) {
	case valMsg:
		if s.phase == ackCollect && !s.heard.has(from) {
			s.heard = s.heard.add(from)
			if pl.V == sim.One {
				s.ones++
			}
			if s.heard.contains(allProcs(s.n).del(0)) {
				s.biasKnown, s.bias = true, s.ones >= s.k
				s.out = broadcastOut(s.out, allProcs(s.n).del(0), biasMsg{Committable: s.bias})
				if s.bias {
					s.phase = ackWaitAcks
				} else {
					s.decided = sim.Abort
					s.phase = ackDone
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

// enterThTerm switches into the termination protocol: committable iff the
// processor knows the tally reached the threshold (a committable bias or a
// commit decision — under the safe discipline the two coincide).
func (s thState) enterThTerm() thState {
	s.phase = ackTerm
	s.out = nil
	committable := s.decided == sim.Commit || (s.biasKnown && s.bias)
	up := allProcs(s.n).minus(s.removed)
	s.term = newTermCore(s.self, s.n, committable, up)
	if s.term.done && s.decided == sim.NoDecision {
		s.decided = s.term.decision()
	}
	return s
}
