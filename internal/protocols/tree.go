package protocols

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// Tree is the WT-TC tree protocol of Figure 1. Processors form a complete
// binary tree (heap layout: the root is p0, the children of p_i are
// p_{2i+1} and p_{2i+2}); the paper's instance has seven processors.
//
// Phase 1: inputs are sent toward the root, which sets bias to committable
// iff every input is 1 and sends the bias toward the leaves — except that no
// message is sent to a leaf whose input was 0 (such a leaf already knows the
// bias is noncommittable and aborts immediately after sending its input).
// If the bias is noncommittable, processors abort and Phase 2 is omitted.
//
// Phase 2 (bias committable): leaves acknowledge toward the root; after
// receiving all acknowledgements the root decides commit and sends commit
// toward the leaves.
//
// Whenever a failure is detected, processors switch to the Appendix
// termination protocol, carrying their current bias.
//
// With ST set, the protocol is the Corollary 11 variant: processors become
// amnesic as soon as they decide, and amnesic processors announce themselves
// when they detect a failure so that the termination protocol's UP sets can
// drop them.
type Tree struct {
	// Procs is the number of processors; it must be 2^k − 1 for k ≥ 2.
	Procs int
	// ST selects the strongly terminating (amnesic) variant.
	ST bool
}

var _ sim.Protocol = Tree{}

// Name implements sim.Protocol.
func (t Tree) Name() string {
	if t.ST {
		return fmt.Sprintf("tree-st(N=%d)", t.Procs)
	}
	return fmt.Sprintf("tree(N=%d)", t.Procs)
}

// N implements sim.Protocol.
func (t Tree) N() int { return t.Procs }

// ValidTreeSize reports whether n is a complete-binary-tree size 2^k − 1,
// k ≥ 2.
func ValidTreeSize(n int) bool {
	return n >= 3 && (n+1)&n == 0
}

func parent(p sim.ProcID) sim.ProcID { return (p - 1) / 2 }

func children(p sim.ProcID, n int) []sim.ProcID {
	var out []sim.ProcID
	if l := 2*p + 1; int(l) < n {
		out = append(out, l)
	}
	if r := 2*p + 2; int(r) < n {
		out = append(out, r)
	}
	return out
}

func isLeaf(p sim.ProcID, n int) bool { return int(2*p+1) >= n }

// treePhase tracks a processor's logical position in the protocol.
type treePhase int

const (
	phaseLeafSendVal treePhase = iota + 1
	phaseLeafWaitBias
	phaseLeafWaitCommit
	phaseInnerWaitVals
	phaseInnerWaitBias
	phaseInnerWaitAcks
	phaseInnerWaitCommit
	phaseRootWaitVals
	phaseRootWaitAcks
	phaseMainDone // decided in the main protocol
	phaseTerm     // running the termination protocol
	phaseAmnesic  // ST variant: decision made and forgotten
)

func (ph treePhase) String() string {
	if ph < 0 || int(ph) >= len(treePhaseNames) {
		return ""
	}
	return treePhaseNames[ph]
}

// treePhaseNames names each tree phase, by value.
var treePhaseNames = [...]string{
	phaseLeafSendVal: "leaf-send-val", phaseLeafWaitBias: "leaf-wait-bias",
	phaseLeafWaitCommit: "leaf-wait-commit", phaseInnerWaitVals: "inner-wait-vals",
	phaseInnerWaitBias: "inner-wait-bias", phaseInnerWaitAcks: "inner-wait-acks",
	phaseInnerWaitCommit: "inner-wait-commit", phaseRootWaitVals: "root-wait-vals",
	phaseRootWaitAcks: "root-wait-acks", phaseMainDone: "main-done",
	phaseTerm: "term", phaseAmnesic: "amnesic",
}

// outItem is one pending main-protocol send.
type outItem struct {
	to      sim.ProcID
	payload sim.Payload
}

// treeState is the local state of one tree-protocol processor.
type treeState struct {
	self  sim.ProcID
	n     int
	input sim.Bit
	st    bool // ST variant
	phase treePhase

	agg       sim.Bit // conjunction of own input and received subtree values
	vals      procSet // children whose value has been received
	zeroKids  procSet // leaf children that reported 0 (skipped for bias)
	acks      procSet // children whose ack has been received
	biasKnown bool
	bias      bool // committable?

	out       []outItem    // pending main-protocol sends
	afterSend sim.Decision // decision to take when out drains

	decided sim.Decision
	amnesic bool

	removed procSet // processors known failed or amnesic
	term    termCore

	amnesicSent bool
	amnOut      procSet // pending amnesic-announcement targets
}

var _ sim.State = treeState{}

// Kind implements sim.State.
func (s treeState) Kind() sim.StateKind {
	switch {
	case !s.amnOut.empty():
		return sim.Sending
	case len(s.out) > 0:
		return sim.Sending
	case s.phase == phaseTerm && s.term.sending():
		return sim.Sending
	case s.pendingAmnesia():
		return sim.Sending // a null send moves the decided state to amnesic
	default:
		return sim.Receiving
	}
}

// pendingAmnesia reports whether the ST variant owes a transition from the
// decision state into the amnesic state.
func (s treeState) pendingAmnesia() bool {
	return s.st && s.decided != sim.NoDecision && !s.amnesic
}

// Decided implements sim.State.
func (s treeState) Decided() (sim.Decision, bool) {
	if s.amnesic || s.decided == sim.NoDecision {
		return sim.NoDecision, false
	}
	return s.decided, true
}

// Amnesic implements sim.State.
func (s treeState) Amnesic() bool { return s.amnesic }

// Key implements sim.State.
func (s treeState) Key() string {
	var scratch [160]byte
	buf := appendHeader(scratch[:0], "tree", s.self, s.n, s.input, s.phase.String())
	buf = append(buf, " agg"...)
	buf = strconv.AppendInt(buf, int64(s.agg), 10)
	buf = s.vals.appendKey(append(buf, " vals"...))
	buf = s.zeroKids.appendKey(append(buf, " zk"...))
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
	if s.amnesic {
		buf = append(buf, " amnesic"...)
	}
	buf = s.removed.appendKey(append(buf, " rm"...))
	if s.phase == phaseTerm {
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

// committableNow reports the processor's current bias for termination-
// protocol entry.
func (s treeState) committableNow() bool {
	if s.decided == sim.Commit {
		return true
	}
	return s.biasKnown && s.bias
}

// Init implements sim.Protocol.
func (t Tree) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	s := treeState{self: p, n: n, input: input, st: t.ST, agg: input}
	switch {
	case isLeaf(p, n):
		s.out = []outItem{{to: parent(p), payload: valMsg{V: input}}}
		if input == sim.Zero {
			// A leaf with input 0 knows every processor is
			// noncommittable: it aborts right after sending its
			// input, and no further message will be sent to it.
			s.phase = phaseLeafSendVal
			s.afterSend = sim.Abort
		} else {
			s.phase = phaseLeafWaitBias
		}
	case p == 0:
		s.phase = phaseRootWaitVals
	default:
		s.phase = phaseInnerWaitVals
	}
	return s
}

// SendStep implements sim.Protocol.
func (t Tree) SendStep(p sim.ProcID, st sim.State) (sim.State, []sim.Envelope) {
	s, ok := st.(treeState)
	if !ok {
		return st, nil
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
		if len(s.out) == 0 && s.afterSend != sim.NoDecision {
			s.decided = s.afterSend
			s.afterSend = sim.NoDecision
			if s.phase != phaseTerm {
				s.phase = phaseMainDone
			}
		}
		return s, []sim.Envelope{{To: item.to, Payload: item.payload}}

	case s.phase == phaseTerm && s.term.sending():
		core, env := s.term.sendStep()
		s.term = core
		if s.term.done && s.decided == sim.NoDecision {
			s.decided = s.term.decision()
		}
		return s, []sim.Envelope{env}

	case s.pendingAmnesia():
		// The null sending step of the ST variant: move from the
		// decision state into the amnesic state (β = ∅), keeping no
		// record of the processing involved — only the protocol
		// identity, the failure bookkeeping, and the amnesia flag
		// survive. There is really only one amnesic state.
		return treeState{
			self:        s.self,
			n:           s.n,
			st:          s.st,
			phase:       phaseAmnesic,
			amnesic:     true,
			removed:     s.removed,
			amnesicSent: s.amnesicSent,
		}, nil
	}
	return s, nil
}

// Receive implements sim.Protocol.
func (t Tree) Receive(p sim.ProcID, st sim.State, m sim.Message) sim.State {
	s, ok := st.(treeState)
	if !ok {
		return st
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

	// Failure notices, termination-protocol traffic, and amnesia
	// announcements all pull a main-protocol processor into the
	// termination protocol.
	if m.Notice || isTermPayload(m.Payload) {
		if s.phase != phaseTerm {
			s = s.enterTerm()
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

	if s.phase == phaseTerm {
		// Late main-protocol messages inside the termination protocol
		// are ignored. Adopting them as bias evidence would bypass the
		// round-chain accounting that makes N rounds sufficient for
		// N−1 failures; a safe protocol never needs them, because any
		// decided-commit processor implies every processor was already
		// committable when it entered the termination protocol.
		return s
	}

	return t.receiveMain(s, from, m.Payload)
}

// receiveMain handles a main-protocol message in a main-protocol phase.
func (t Tree) receiveMain(s treeState, from sim.ProcID, payload sim.Payload) sim.State {
	switch s.phase {
	case phaseLeafWaitBias:
		if b, ok := payload.(biasMsg); ok {
			s.biasKnown, s.bias = true, b.Committable
			if b.Committable {
				s.out = []outItem{{to: parent(s.self), payload: ackMsg{}}}
				s.phase = phaseLeafWaitCommit
			} else {
				s.decided = sim.Abort
				s.phase = phaseMainDone
			}
		}
	case phaseLeafWaitCommit:
		if d, ok := payload.(decisionMsg); ok && d.D == sim.Commit {
			s.decided = sim.Commit
			s.phase = phaseMainDone
		}
	case phaseInnerWaitVals, phaseRootWaitVals:
		v, ok := payload.(valMsg)
		if !ok || s.vals.has(from) {
			break
		}
		s.vals = s.vals.add(from)
		if v.V == sim.Zero {
			s.agg = sim.Zero
			if isLeaf(from, s.n) {
				s.zeroKids = s.zeroKids.add(from)
			}
		}
		kids := children(s.self, s.n)
		if s.vals.count() == len(kids) {
			if s.phase == phaseInnerWaitVals {
				s.out = []outItem{{to: parent(s.self), payload: valMsg{V: s.agg}}}
				s.phase = phaseInnerWaitBias
			} else {
				s = s.rootSetBias()
			}
		}
	case phaseInnerWaitBias:
		if b, ok := payload.(biasMsg); ok {
			s.biasKnown, s.bias = true, b.Committable
			s.out = s.biasForwards(b.Committable)
			if b.Committable {
				s.phase = phaseInnerWaitAcks
			} else {
				s.afterSend = sim.Abort
				if len(s.out) == 0 {
					s.decided = sim.Abort
					s.afterSend = sim.NoDecision
					s.phase = phaseMainDone
				}
			}
		}
	case phaseInnerWaitAcks:
		if _, ok := payload.(ackMsg); ok && !s.acks.has(from) {
			s.acks = s.acks.add(from)
			if s.acks.count() == len(children(s.self, s.n)) {
				s.out = []outItem{{to: parent(s.self), payload: ackMsg{}}}
				s.phase = phaseInnerWaitCommit
			}
		}
	case phaseInnerWaitCommit:
		if d, ok := payload.(decisionMsg); ok && d.D == sim.Commit {
			s.decided = sim.Commit
			s.phase = phaseMainDone
			for _, c := range children(s.self, s.n) {
				s.out = appendOut(s.out, outItem{to: c, payload: decisionMsg{D: sim.Commit}})
			}
		}
	case phaseRootWaitAcks:
		if _, ok := payload.(ackMsg); ok && !s.acks.has(from) {
			s.acks = s.acks.add(from)
			if s.acks.count() == len(children(s.self, s.n)) {
				// All acknowledgements received: the root decides
				// commit and sends commit toward the leaves.
				s.decided = sim.Commit
				s.phase = phaseMainDone
				for _, c := range children(s.self, s.n) {
					s.out = appendOut(s.out, outItem{to: c, payload: decisionMsg{D: sim.Commit}})
				}
			}
		}
	case phaseMainDone, phaseLeafSendVal:
		// Decided processors ignore stray main-protocol messages.
	}
	return s
}

// rootSetBias runs the root's bias computation once all values are in.
func (s treeState) rootSetBias() treeState {
	s.biasKnown, s.bias = true, s.agg == sim.One
	s.out = s.biasForwards(s.bias)
	if s.bias {
		s.phase = phaseRootWaitAcks
	} else {
		s.afterSend = sim.Abort
		if len(s.out) == 0 {
			s.decided = sim.Abort
			s.afterSend = sim.NoDecision
			s.phase = phaseMainDone
		}
	}
	return s
}

// biasForwards queues the bias messages for the children, skipping leaf
// children that reported 0 (Figure 1's starred rule).
func (s treeState) biasForwards(committable bool) []outItem {
	var out []outItem
	for _, c := range children(s.self, s.n) {
		if !committable && s.zeroKids.has(c) {
			continue
		}
		out = append(out, outItem{to: c, payload: biasMsg{Committable: committable}})
	}
	return out
}

// enterTerm switches the processor into the Appendix termination protocol,
// carrying its current bias and shrinking UP by every known-failed or
// amnesic processor.
func (s treeState) enterTerm() treeState {
	s.phase = phaseTerm
	s.out = nil
	s.afterSend = sim.NoDecision
	s.vals, s.acks = procSet{}, procSet{}
	up := allProcs(s.n).minus(s.removed)
	s.term = newTermCore(s.self, s.n, s.committableNow(), up)
	if s.term.done && s.decided == sim.NoDecision {
		s.decided = s.term.decision()
	}
	return s
}

// isTermPayload reports whether the payload belongs to the termination
// protocol layer.
func isTermPayload(p sim.Payload) bool {
	switch p.(type) {
	case termMsg, amnesicMsg:
		return true
	default:
		return false
	}
}
