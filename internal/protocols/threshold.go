package protocols

import (
	"fmt"
	"strconv"

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

	fallback
}

var _ sim.State = thState{}

// Kind implements sim.State.
func (s thState) Kind() sim.StateKind {
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
	// The header carries k between n and the input, so it is spelled out
	// here rather than by appendHeader.
	var scratch [128]byte
	buf := strconv.AppendInt(append(scratch[:0], "th{p"...), int64(s.self), 10)
	buf = strconv.AppendInt(append(buf, " n"...), int64(s.n), 10)
	buf = strconv.AppendInt(append(buf, " k"...), int64(s.k), 10)
	buf = strconv.AppendInt(append(buf, " in"...), int64(s.input), 10)
	buf = append(append(buf, ' '), s.phase.String()...)
	buf = s.heard.appendKey(append(buf, " heard"...))
	buf = strconv.AppendInt(append(buf, " ones"...), int64(s.ones), 10)
	buf = s.acks.appendKey(append(buf, " acks"...))
	if s.biasKnown {
		buf = strconv.AppendBool(append(buf, " bias"...), s.bias)
	}
	buf = appendOuts(buf, s.out)
	if s.decided != sim.NoDecision {
		buf = append(append(buf, " dec:"...), s.decided.String()...)
	}
	buf = s.appendKey(buf, s.phase == ackTerm)
	return string(append(buf, '}'))
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
	case s.term.sending():
		var envs []sim.Envelope
		s.fallback, envs = s.send()
		s.decided = s.settle(s.decided)
		return s, envs
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
			// Committable iff the processor knows the tally reached
			// the threshold (a committable bias or a commit decision:
			// under the safe discipline the two coincide).
			s.phase, s.out = ackTerm, nil
			s.fallback = s.enter(s.self, s.n, s.decided == sim.Commit || (s.biasKnown && s.bias))
		}
		s.fallback = s.absorb(m)
		s.decided = s.settle(s.decided)
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
