package protocols

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// Star is the HT-IC protocol of Figure 2: a centralized (star) protocol in
// which every participant sends its input to the coordinator p0, which
// computes the unanimity decision (aborting if it detects any failure while
// collecting), broadcasts the decision, decides, and halts. Each participant
// receives the decision, relays it to every other participant, decides, and
// halts; a participant that detects a failure first instead calls the
// modified termination protocol, in which receiving a decision message
// removes its (halted) sender from UP and counts as bias evidence.
//
// The protocol establishes halting termination and interactive consistency,
// but not total consistency: the coordinator decides and halts before the
// nonfaulty processors share its bias, violating Corollary 6 whenever the
// decision is commit.
type Star struct {
	// Procs is the number of processors (≥ 3).
	Procs int
}

var _ sim.Protocol = Star{}

// Name implements sim.Protocol.
func (s Star) Name() string { return fmt.Sprintf("star(N=%d)", s.Procs) }

// N implements sim.Protocol.
func (s Star) N() int { return s.Procs }

type starPhase int

const (
	starCollect      starPhase = iota + 1 // p0 gathering inputs
	starWaitDecision                      // p_i awaiting the decision
	starTerm                              // modified termination protocol
	starDone                              // decided; halts once sends drain
)

func (p starPhase) String() string {
	switch p {
	case starCollect:
		return "collect"
	case starWaitDecision:
		return "wait-decision"
	case starTerm:
		return "term"
	case starDone:
		return "done"
	default:
		return "invalid"
	}
}

// starState is the local state of one Figure 2 processor.
type starState struct {
	self  sim.ProcID
	n     int
	input sim.Bit
	phase starPhase

	// Coordinator fields.
	heard   procSet // participants whose input or failure notice arrived
	conj    sim.Bit // conjunction of inputs seen (with own)
	anyFail bool

	out       []outItem
	afterSend sim.Decision

	decided sim.Decision
	halted  bool

	removed procSet
	term    termCore
}

var _ sim.State = starState{}

// Kind implements sim.State.
func (s starState) Kind() sim.StateKind {
	switch {
	case len(s.out) > 0:
		return sim.Sending
	case s.phase == starTerm && s.term.sending():
		return sim.Sending
	case s.halted:
		return sim.Halted
	default:
		return sim.Receiving
	}
}

// Decided implements sim.State.
func (s starState) Decided() (sim.Decision, bool) {
	if s.decided == sim.NoDecision {
		return sim.NoDecision, false
	}
	return s.decided, true
}

// Amnesic implements sim.State.
func (s starState) Amnesic() bool { return false }

// Key implements sim.State.
func (s starState) Key() string {
	var scratch [128]byte
	buf := appendHeader(scratch[:0], "star", s.self, s.n, s.input, s.phase.String())
	buf = s.heard.appendKey(append(buf, " heard"...))
	buf = strconv.AppendInt(append(buf, " conj"...), int64(s.conj), 10)
	if s.anyFail {
		buf = append(buf, " fail"...)
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
	buf = s.removed.appendKey(append(buf, " rm"...))
	if s.phase == starTerm {
		buf = append(s.term.appendKey(append(buf, " ["...)), ']')
	}
	return string(append(buf, '}'))
}

// Init implements sim.Protocol.
func (st Star) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	s := starState{self: p, n: n, input: input, conj: input}
	if p == 0 {
		s.phase = starCollect
	} else {
		s.phase = starWaitDecision
		s.out = []outItem{{to: 0, payload: valMsg{V: input}}}
	}
	return s
}

// SendStep implements sim.Protocol.
func (st Star) SendStep(p sim.ProcID, state sim.State) (sim.State, []sim.Envelope) {
	s, ok := state.(starState)
	if !ok {
		return state, nil
	}
	switch {
	case len(s.out) > 0:
		item := s.out[0]
		s.out = append([]outItem(nil), s.out[1:]...)
		if len(s.out) == 0 && s.afterSend != sim.NoDecision {
			// "broadcast(decision); decide; halt"
			s.decided = s.afterSend
			s.afterSend = sim.NoDecision
			s.phase = starDone
			s.halted = true
		}
		return s, []sim.Envelope{{To: item.to, Payload: item.payload}}

	case s.phase == starTerm && s.term.sending():
		core, env := s.term.sendStep()
		s.term = core
		if s.term.done {
			s.decided = s.term.decision()
			s.halted = true
		}
		return s, []sim.Envelope{env}
	}
	return s, nil
}

// Receive implements sim.Protocol.
func (st Star) Receive(p sim.ProcID, state sim.State, m sim.Message) sim.State {
	s, ok := state.(starState)
	if !ok {
		return state
	}
	from := m.ID.From

	switch s.phase {
	case starCollect:
		// p0's receive_all over P − {p0}: an input message or a
		// failure notice accounts for its sender.
		if m.Notice {
			s.anyFail = true
			s.removed = s.removed.add(from)
			s.heard = s.heard.add(from)
		} else if v, ok := m.Payload.(valMsg); ok {
			if v.V == sim.Zero {
				s.conj = sim.Zero
			}
			s.heard = s.heard.add(from)
		}
		if s.heard.contains(allProcs(s.n).del(0)) {
			d := sim.Abort
			if !s.anyFail && s.conj == sim.One {
				d = sim.Commit
			}
			for _, q := range allProcs(s.n).del(0).members() {
				s.out = appendOut(s.out, outItem{to: q, payload: decisionMsg{D: d}})
			}
			s.afterSend = d
		}
		return s

	case starWaitDecision:
		switch {
		case m.Notice:
			s.removed = s.removed.add(from)
			s = s.enterStarTerm()
		case isTermPayload(m.Payload):
			s = s.enterStarTerm()
			if tm, ok := m.Payload.(termMsg); ok {
				s.term = s.term.onTermMsg(from, tm)
			}
		default:
			if d, ok := m.Payload.(decisionMsg); ok {
				// Relay the decision to the other participants,
				// then decide and halt.
				for _, q := range allProcs(s.n).del(0).del(s.self).members() {
					s.out = appendOut(s.out, outItem{to: q, payload: decisionMsg{D: d.D}})
				}
				s.afterSend = d.D
				if len(s.out) == 0 {
					s.decided = d.D
					s.afterSend = sim.NoDecision
					s.phase = starDone
					s.halted = true
				}
			}
		}
		if s.phase == starTerm && s.term.done {
			s.decided = s.term.decision()
			s.halted = true
		}
		return s

	case starTerm:
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
				// The Figure 2 modification: the sender of a
				// decision message has halted — remove it from
				// UP — and classify the decision as
				// committable/noncommittable evidence.
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

	case starDone:
		return s
	}
	return s
}

// enterStarTerm switches a participant into the modified termination
// protocol. The participant's bias is noncommittable: a participant only
// ever learns that all inputs are 1 by receiving a commit decision, which is
// handled as evidence afterwards.
func (s starState) enterStarTerm() starState {
	s.phase = starTerm
	s.out = nil
	s.afterSend = sim.NoDecision
	up := allProcs(s.n).minus(s.removed)
	s.term = newTermCore(s.self, s.n, s.decided == sim.Commit, up)
	if s.term.done && s.decided == sim.NoDecision {
		s.decided = s.term.decision()
		s.halted = true
	}
	return s
}
