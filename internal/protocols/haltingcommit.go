package protocols

import (
	"fmt"
	"strings"

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

	removed procSet
	term    termCore
}

var _ sim.State = hcState{}

// Kind implements sim.State.
func (s hcState) Kind() sim.StateKind {
	switch {
	case len(s.out) > 0:
		return sim.Sending
	case s.phase == hcTerm && s.term.sending():
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
	var sb strings.Builder
	fmt.Fprintf(&sb, "hc{%s n%d in%d %s heard%s conj%d z%s acks%s",
		s.self, s.n, s.input, s.phase, s.heard.key(), s.conj, s.zeros.key(), s.acks.key())
	if s.anyFail {
		sb.WriteString(" fail")
	}
	if s.biasKnown {
		fmt.Fprintf(&sb, " bias%v", s.bias)
	}
	for _, o := range s.out {
		fmt.Fprintf(&sb, " →%s:%s", o.to, o.payload.Key())
	}
	if s.afterSend != sim.NoDecision {
		fmt.Fprintf(&sb, " after:%s", s.afterSend)
	}
	if s.decided != sim.NoDecision {
		fmt.Fprintf(&sb, " dec:%s", s.decided)
	}
	if s.halted {
		sb.WriteString(" halted")
	}
	fmt.Fprintf(&sb, " rm%s", s.removed.key())
	if s.phase == hcTerm {
		fmt.Fprintf(&sb, " [%s]", s.term.key())
	}
	sb.WriteString("}")
	return sb.String()
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
	case s.phase == hcTerm && s.term.sending():
		core, env := s.term.sendStep()
		s.term = core
		if s.term.done && s.decided == sim.NoDecision {
			s.decided = s.term.decision()
			s.halted = true
		}
		return s, []sim.Envelope{env}
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

	if s.phase == hcTerm {
		return s.hcTermReceive(from, m)
	}

	switch {
	case m.Notice:
		s.removed = s.removed.add(from)
		if s.phase == hcCollect {
			// The coordinator treats a failure during collection as
			// an abort vote (unanimity permits abort once a failure
			// occurs); nobody can be committable yet, so halting on
			// abort is safe.
			s.anyFail = true
			s.heard = s.heard.add(from)
			return s.hcMaybeDecideBias()
		}
		return s.enterHcTerm()
	case isTermPayload(m.Payload):
		s = s.enterHcTerm()
		return s.hcTermReceive(from, m)
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

// hcTermReceive handles a message inside the modified termination protocol.
func (s hcState) hcTermReceive(from sim.ProcID, m sim.Message) sim.State {
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
		case decisionMsg:
			// Figure 2's modification: the sender has halted —
			// remove it — and its decision classifies as bias
			// evidence.
			s.removed = s.removed.add(from)
			if pl.D == sim.Commit {
				s.term = s.term.onEvidence()
			}
			s.term = s.term.onRemoved(from)
		}
	}
	if s.term.done && s.decided == sim.NoDecision {
		s.decided = s.term.decision()
		s.halted = true
	}
	return s
}

// enterHcTerm switches into the modified termination protocol with the
// current bias.
func (s hcState) enterHcTerm() hcState {
	s.phase = hcTerm
	s.out = nil
	s.afterSend = sim.NoDecision
	committable := s.decided == sim.Commit || (s.biasKnown && s.bias)
	up := allProcs(s.n).minus(s.removed)
	s.term = newTermCore(s.self, s.n, committable, up)
	if s.term.done && s.decided == sim.NoDecision {
		s.decided = s.term.decision()
		s.halted = true
	}
	return s
}
