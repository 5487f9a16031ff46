package protocols

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// HaltingCommit solves HT-TC, the top of the paper's lattice: it combines
// the safe two-phase structure of AckCommit (no processor decides commit
// until every processor has acknowledged the committable bias, so every
// state is safe) with the halting machinery of the Figure 2 star protocol
// (every processor broadcasts its decision to all others before halting, so
// the modified termination protocol can remove halted processors from UP by
// classifying their decision messages).
//
// Total consistency survives halting precisely because of safety: whenever
// any processor has decided, every processor already shares its bias
// (Corollary 6), so termination-protocol survivors reach the same decision
// without needing a halted processor's cooperation.
//
// Phases: participants vote; a participant voting 0 decides abort,
// broadcasts its decision, and halts. The coordinator aborts (broadcasting
// the decision) if any vote is 0 or a failure is detected while collecting;
// otherwise it sends the committable bias, collects acknowledgements,
// decides commit, broadcasts the decision, and halts. Participants
// acknowledge the bias, decide on the decision message, broadcast their own
// decision, and halt. Failure detection after the bias diverts processors
// into the modified termination protocol.
type HaltingCommit struct {
	// Procs is the number of processors (≥ 2); p0 coordinates.
	Procs int
}

var _ sim.Protocol = HaltingCommit{}

// Name implements sim.Protocol.
func (h HaltingCommit) Name() string { return fmt.Sprintf("haltingcommit(N=%d)", h.Procs) }

// N implements sim.Protocol.
func (h HaltingCommit) N() int { return h.Procs }

type hcPhase int

const (
	hcCollect hcPhase = iota + 1
	hcWaitAcks
	hcWaitBias
	hcWaitCommit
	hcDone // decided; halts once the decision broadcast drains
	hcTerm
)

func (p hcPhase) String() string {
	switch p {
	case hcCollect:
		return "collect"
	case hcWaitAcks:
		return "wait-acks"
	case hcWaitBias:
		return "wait-bias"
	case hcWaitCommit:
		return "wait-commit"
	case hcDone:
		return "done"
	case hcTerm:
		return "term"
	default:
		return "invalid"
	}
}

// hcState is the local state of one HaltingCommit processor.
type hcState struct {
	self  sim.ProcID
	n     int
	input sim.Bit
	phase hcPhase

	heard   procSet
	conj    sim.Bit
	zeros   procSet
	acks    procSet
	anyFail bool

	biasKnown bool
	bias      bool

	out       []outItem
	afterSend sim.Decision
	decided   sim.Decision
	halted    bool

	fallback
}

var _ sim.State = hcState{}

// Kind implements sim.State.
func (s hcState) Kind() sim.StateKind {
	switch {
	case len(s.out) > 0:
		return sim.Sending
	case s.term.sending():
		return sim.Sending
	case s.halted:
		return sim.Halted
	default:
		return sim.Receiving
	}
}

// Decided implements sim.State.
func (s hcState) Decided() (sim.Decision, bool) {
	if s.decided == sim.NoDecision {
		return sim.NoDecision, false
	}
	return s.decided, true
}

// Amnesic implements sim.State.
func (s hcState) Amnesic() bool { return false }

// Key implements sim.State.
func (s hcState) Key() string {
	var scratch [160]byte
	buf := appendHeader(scratch[:0], "hc", s.self, s.n, s.input, s.phase.String())
	buf = s.heard.appendKey(append(buf, " heard"...))
	buf = strconv.AppendInt(append(buf, " conj"...), int64(s.conj), 10)
	buf = s.zeros.appendKey(append(buf, " z"...))
	buf = s.acks.appendKey(append(buf, " acks"...))
	if s.anyFail {
		buf = append(buf, " fail"...)
	}
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
	if s.halted {
		buf = append(buf, " halted"...)
	}
	buf = s.appendKey(buf, s.phase == hcTerm)
	return string(append(buf, '}'))
}

// decideBroadcastHalt queues the decision broadcast to every other
// processor; the processor decides as the broadcast completes and halts.
func (s hcState) decideBroadcastHalt(d sim.Decision) hcState {
	s.out = broadcastOut(s.out, allProcs(s.n).del(s.self), decisionMsg{D: d})
	s.afterSend = d
	s.phase = hcDone
	if len(s.out) == 0 {
		s.decided = d
		s.afterSend = sim.NoDecision
		s.halted = true
	}
	return s
}

// Init implements sim.Protocol.
func (h HaltingCommit) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	s := hcState{self: p, n: n, input: input, conj: input}
	if p == 0 {
		s.phase = hcCollect
		if n == 1 {
			return s.decideBroadcastHalt(sim.DecisionFor(input))
		}
		return s
	}
	s.out = []outItem{{to: 0, payload: valMsg{V: input}}}
	if input == sim.Zero {
		// A 0-voter knows the outcome: abort, announce to everyone
		// (including the coordinator, which may have been pulled into
		// the termination protocol and needs the decision message to
		// remove this halted processor from its UP set), and halt.
		s.phase = hcDone
		s.afterSend = sim.Abort
		s.out = broadcastOut(s.out, allProcs(n).del(p).del(0), decisionMsg{D: sim.Abort})
		s.out = appendOut(s.out, outItem{to: 0, payload: decisionMsg{D: sim.Abort}})
	} else {
		s.phase = hcWaitBias
	}
	return s
}

// SendStep implements sim.Protocol.
func (h HaltingCommit) SendStep(p sim.ProcID, state sim.State) (sim.State, []sim.Envelope) {
	s, ok := state.(hcState)
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
			if s.phase != hcTerm {
				s.phase = hcDone
			}
			s.halted = true
		}
		return s, []sim.Envelope{{To: item.to, Payload: item.payload}}
	case s.term.sending():
		var envs []sim.Envelope
		s.fallback, envs = s.send()
		return s.halt(), envs
	}
	return s, nil
}

// Receive implements sim.Protocol.
func (h HaltingCommit) Receive(p sim.ProcID, state sim.State, m sim.Message) sim.State {
	s, ok := state.(hcState)
	if !ok {
		return state
	}
	from := m.ID.From

	if m.Notice && s.phase == hcCollect {
		// The coordinator treats a failure during collection as an
		// abort vote (unanimity permits abort once a failure occurs);
		// nobody can be committable yet, so halting on abort is safe.
		s.removed = s.removed.add(from)
		s.anyFail = true
		s.heard = s.heard.add(from)
		return s.hcMaybeDecideBias()
	}
	if m.Notice || isTermPayload(m.Payload) || s.phase == hcTerm {
		if s.phase != hcTerm {
			s.phase, s.out, s.afterSend = hcTerm, nil, sim.NoDecision
			s.fallback = s.enter(s.self, s.n, s.decided == sim.Commit || (s.biasKnown && s.bias))
		}
		// Figure 2's modification: a decision message is classified.
		if d, ok := m.Payload.(decisionMsg); ok {
			s.fallback = s.classify(from, d.D)
		} else {
			s.fallback = s.absorb(m)
		}
		return s.halt()
	}

	switch pl := m.Payload.(type) {
	case valMsg:
		if s.phase == hcCollect && !s.heard.has(from) {
			s.heard = s.heard.add(from)
			if pl.V == sim.Zero {
				s.conj = sim.Zero
				s.zeros = s.zeros.add(from)
			}
			return s.hcMaybeDecideBias()
		}
	case biasMsg:
		if s.phase == hcWaitBias && pl.Committable {
			s.biasKnown, s.bias = true, true
			s.out = appendOut(s.out, outItem{to: 0, payload: ackMsg{}})
			s.phase = hcWaitCommit
		}
	case ackMsg:
		if s.phase == hcWaitAcks && !s.acks.has(from) {
			s.acks = s.acks.add(from)
			if s.acks.contains(allProcs(s.n).del(0)) {
				return s.decideBroadcastHalt(sim.Commit)
			}
		}
	case decisionMsg:
		switch s.phase {
		case hcWaitBias, hcWaitCommit:
			// Adopt the decision, announce, halt. Under the safe
			// two-phase discipline a commit decision implies this
			// processor already acknowledged the committable bias.
			if pl.D == sim.Commit {
				s.biasKnown, s.bias = true, true
			}
			return s.decideBroadcastHalt(pl.D)
		}
	}
	return s
}

// hcMaybeDecideBias runs the coordinator's bias step once every participant
// is accounted for.
func (s hcState) hcMaybeDecideBias() hcState {
	if !s.heard.contains(allProcs(s.n).del(0)) {
		return s
	}
	if s.anyFail || s.conj == sim.Zero {
		return s.decideBroadcastHalt(sim.Abort)
	}
	s.biasKnown, s.bias = true, true
	s.out = broadcastOut(s.out, allProcs(s.n).del(0), biasMsg{Committable: true})
	s.phase = hcWaitAcks
	return s
}

// halt takes the termination protocol's decision once it has one; a
// processor that decides there halts, as Figure 2's do.
func (s hcState) halt() hcState {
	if d := s.settle(s.decided); d != s.decided {
		s.decided, s.halted = d, true
	}
	return s
}
