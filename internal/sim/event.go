package sim

import (
	"errors"
	"fmt"

	"repro/internal/fingerprint"
)

// EventType distinguishes the three kinds of step in the model.
type EventType int

const (
	// Deliver is the event (p, µ): receipt of buffered message µ by p.
	Deliver EventType = iota + 1
	// SendStep is the event (p, ∅): p takes a sending step.
	SendStepEvent
	// Fail is the event (p, f): p fails, broadcasting failure notices.
	Fail
	// Omit is the omission-fault event (p, µ̸): the adversary suppresses
	// the delivery of buffered message µ to p. The message is consumed —
	// it leaves the buffer exactly as a delivery would — but Receive never
	// fires, so p's state is unchanged and p learns nothing. Omit events
	// are enumerated only under an enabled OmissionPolicy.
	Omit
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case Deliver:
		return "deliver"
	case SendStepEvent:
		return "send"
	case Fail:
		return "fail"
	case Omit:
		return "omit"
	default:
		return "invalid"
	}
}

// Event is a schedule element: an event (p, µ) with µ a buffered message, ∅
// (a sending step), or f (a failure).
type Event struct {
	Proc ProcID
	Type EventType
	// Msg identifies the delivered message for Deliver events.
	Msg MsgID
}

// String renders the event for traces.
func (e Event) String() string {
	switch e.Type {
	case Deliver:
		return fmt.Sprintf("%s receives %s", e.Proc, e.Msg)
	case SendStepEvent:
		return fmt.Sprintf("%s sends", e.Proc)
	case Fail:
		return fmt.Sprintf("%s fails", e.Proc)
	case Omit:
		return fmt.Sprintf("%s omits %s", e.Proc, e.Msg)
	default:
		return "invalid event"
	}
}

// Schedule is a finite sequence of events, applied in turn.
type Schedule []Event

// Errors returned by Apply.
var (
	// ErrNotApplicable reports an event that is not applicable to the
	// configuration (wrong state kind, message not buffered, or a step by
	// a failed/halted processor).
	ErrNotApplicable = errors.New("sim: event not applicable to configuration")
	// ErrSelfSend reports a protocol emitting a message to its own sender;
	// the model forbids processors from sending to themselves.
	ErrSelfSend = errors.New("sim: protocol sent a message to its own sender")
	// ErrMultiSend reports a sending step that emitted more than one
	// message; β sends at most one message per normal step.
	ErrMultiSend = errors.New("sim: sending step emitted more than one message")
	// ErrRevokedDecision reports a transition out of a decision state into
	// a state with a different visible decision; decisions are
	// irreversible (amnesic states are the one permitted exit).
	ErrRevokedDecision = errors.New("sim: protocol revoked a decision")
)

// Applicable reports whether the event can be applied to the configuration
// under the rules of Section 3.
func Applicable(c *Config, e Event) bool {
	_, ok := c.applicable(e)
	return ok
}

// applicable is Applicable that also returns the buffered message a Deliver
// or an Omit consumes, in place: buffers are persistent, so the pointer
// stays valid.
func (c *Config) applicable(e Event) (*Message, bool) {
	if int(e.Proc) < 0 || int(e.Proc) >= c.N() {
		return nil, false
	}
	k := c.KindAt(e.Proc)
	switch e.Type {
	case Fail:
		// Any non-failed processor (including a halted one) may fail.
		return nil, k != Failed
	case SendStepEvent:
		return nil, k == Sending
	case Deliver:
		if k != Receiving {
			return nil, false
		}
		m := c.Buffers[e.Proc].lookup(e.Msg)
		return m, m != nil
	case Omit:
		// Structurally applicable whenever the message is buffered and the
		// target has not crashed (a halted target is fine: the live runtime
		// can suppress a delivery racing a halt, and replay must accept it).
		// Budget and mobility constraints are enforced where events are
		// *enumerated* (AppendEnabled), not here, for the same reason.
		if k == Failed {
			return nil, false
		}
		m := c.Buffers[e.Proc].lookup(e.Msg)
		return m, m != nil
	default:
		return nil, false
	}
}

// Effect describes what applying one event did: the messages placed into
// buffers (sends and failure notices), the message consumed by a delivery,
// and the message an omission suppressed. Pattern extraction consumes
// effects.
type Effect struct {
	Event    Event
	Sent     []Message
	Received *Message
	// Omitted is the message an Omit event consumed without delivering.
	Omitted *Message
}

// Apply applies event e to configuration c, returning the successor
// configuration e(C) and the effect. c is not mutated. Apply enforces the
// model's validity conditions and returns an error if the protocol violates
// them; scheduling errors (inapplicable events) return ErrNotApplicable.
func Apply(proto Protocol, c *Config, e Event) (*Config, Effect, error) {
	st, m, err := transition(proto, c, e)
	if err != nil {
		return nil, Effect{}, err
	}
	next := c.Clone()
	eff := Effect{Event: e}
	next.commit(e, &st, m, &eff)
	return next, eff, nil
}

// ApplyInPlace is Apply for a caller that owns c and drops the predecessor:
// c becomes e(C) without the per-event Clone (states, buffer headers and the
// N×N channel counters) and without an Effect, which a walk that keeps no
// history has no use for. The checks and the errors are Apply's; on an error
// c is left as it was.
func (c *Config) ApplyInPlace(proto Protocol, e Event) error {
	st, m, err := transition(proto, c, e)
	if err != nil {
		return err
	}
	c.commit(e, &st, m, nil)
	return nil
}

// PostState returns the local state e.Proc holds in e(C) without building
// e(C): the transition and every check Apply runs on it, with Apply's
// errors, and nothing written. It answers "what would this step do to its
// processor?" for schedulers that choose from the current configuration.
func PostState(proto Protocol, c *Config, e Event) (State, error) {
	st, _, err := transition(proto, c, e)
	return st.post, err
}

// step is what applying one event reads, apart from the message a delivery
// or an omission consumes: the stepping processor's post-state and the
// envelope a sending step emits. With C and that message it determines
// e(C): commit and Predictor.Shift take channel counters and omission
// accounting from C. A step depends on nothing else, so the transition
// cache keeps one per distinct transition and hands out pointers to it.
type step struct {
	post State
	// postD is post's digest, unknown while zero, and kind, dec and decided
	// its Kind and Decided, unknown while kind is zero: fill computes them
	// once — for the transition cache when it remembers the step, or for
	// commit on a configuration whose fingerprint cache is warm — and
	// fillKind only the last three, for commit on one whose cache is cold.
	postD   fingerprint.Digest
	kind    StateKind
	dec     Decision
	decided bool
	sends   bool // a sending step that emits env
	env     Envelope
	// payloadKey is env.Payload.Key() once computed — by the transition
	// cache or by commit — so no sent message computes it twice.
	payloadKey string
}

// fill computes the post-state's digest, kind and decision, unless known.
func (st *step) fill() {
	if st.postD.IsZero() {
		st.postD = StateDigest(st.post)
	}
	st.fillKind()
}

// fillKind computes the post-state's kind and decision, unless known.
func (st *step) fillKind() {
	if st.kind != 0 {
		return
	}
	st.kind = st.post.Kind()
	st.dec, st.decided = st.post.Decided()
}

// transition is the reading half of applying e at c: applicability, then
// the protocol's step, and the buffered message a delivery or an omission
// consumes (in C's buffer). Every check that can fail is here; nothing is
// written.
func transition(proto Protocol, c *Config, e Event) (step, *Message, error) {
	m, ok := c.applicable(e)
	if !ok {
		return step{}, nil, fmt.Errorf("%w: %s", ErrNotApplicable, e)
	}
	p := e.Proc
	var st step
	var err error
	switch e.Type {
	case Fail:
		st.post = FailedStateFor(p)
	case SendStepEvent:
		st, err = sendStep(proto, p, c.States[p], c.N())
	case Deliver:
		st, err = receiveStep(proto, p, c.States[p], *m)
	case Omit:
		st.post = c.States[p]
	}
	return st, m, err
}

// sendStep runs p's sending step from s among n processors and holds it to
// the model: at most one message, not to p itself, in range, and no revoked
// decision. It depends on nothing but its arguments, which is what lets the
// transition cache remember it.
func sendStep(proto Protocol, p ProcID, s State, n int) (step, error) {
	post, envs := proto.SendStep(p, s)
	if err := CheckEnvelopes(p, n, envs); err != nil {
		return step{}, err
	}
	if err := checkTransition(s, post); err != nil {
		return step{}, fmt.Errorf("%s send step: %w", p, err)
	}
	st := step{post: post}
	if len(envs) == 1 {
		st.sends, st.env = true, envs[0]
	}
	return st, nil
}

// receiveStep runs p's receipt of m in state s and holds it to the model:
// no revoked decision.
func receiveStep(proto Protocol, p ProcID, s State, m Message) (step, error) {
	post := proto.Receive(p, s, m)
	if err := checkTransition(s, post); err != nil {
		return step{}, fmt.Errorf("%s receiving %s: %w", p, m.ID, err)
	}
	return step{post: post}, nil
}

// CheckEnvelopes holds what processor p emitted in one sending step, among n
// processors, to the model's send contract: at most one message, never to p
// itself, and to a processor that exists. The simulator and the live
// runtime both enforce it here, with the same errors.
func CheckEnvelopes(p ProcID, n int, envs []Envelope) error {
	if len(envs) > 1 {
		return fmt.Errorf("%w: %s emitted %d messages", ErrMultiSend, p, len(envs))
	}
	for _, env := range envs {
		if env.To == p {
			return fmt.Errorf("%w: from %s", ErrSelfSend, p)
		}
		if int(env.To) < 0 || int(env.To) >= n {
			return fmt.Errorf("sim: %s sent to out-of-range %s", p, env.To)
		}
	}
	return nil
}

// commit is the writing half: it turns c, a configuration at which
// transition accepted e (or a copy of one), into e(C), where m is the
// message e consumes. It cannot fail. A non-nil eff, already carrying the
// event, collects what the step sent and consumed.
func (c *Config) commit(e Event, st *step, m *Message, eff *Effect) {
	p := e.Proc
	send := func(m Message) {
		c.addMessage(m.ID.To, m)
		if eff != nil {
			eff.Sent = append(eff.Sent, m)
		}
	}

	switch e.Type {
	case Fail:
		// The paper models failure as two steps: enter z_a, broadcast
		// failed(p) to P−{p}, then move to the absorbing z_b. We apply
		// both atomically; the intermediate z_a is never observable in
		// our configurations, and the net effect — notices everywhere,
		// no further sends, no restart — is identical.
		c.setState(p, st)
		c.noteFail(p)
		for q := 0; q < c.N(); q++ {
			if ProcID(q) != p {
				id := MsgID{From: p, To: ProcID(q), Seq: c.nextSeq(p, ProcID(q))}
				send(Message{ID: id, Notice: true}.Memoized())
			}
		}

	case SendStepEvent:
		c.setState(p, st)
		if st.sends {
			if st.payloadKey == "" {
				st.payloadKey = st.env.Payload.Key()
			}
			id := MsgID{From: p, To: st.env.To, Seq: c.nextSeq(p, st.env.To)}
			send(Message{
				ID:      id,
				Payload: st.env.Payload,
				key:     msgKey(id, st.payloadKey),
				digest:  msgDigestParts(p, id.To, id.Seq, false, st.payloadKey),
			})
		}

	case Deliver:
		c.setState(p, st)
		c.removeMessage(p, *m)
		c.noteDeliver(p)
		if eff != nil {
			eff.Received = m
		}

	case Omit:
		c.removeMessage(p, *m)
		c.noteOmit(p)
		if eff != nil {
			eff.Omitted = m
		}
	}
}

// checkTransition enforces decision irrevocability: once a processor enters a
// state in Y_v it remains in Y_v, except that strong termination permits
// moving from a decision state into an amnesic state.
func checkTransition(from, to State) error {
	d1, ok1 := from.Decided()
	if !ok1 {
		return nil
	}
	if to.Amnesic() {
		return nil
	}
	d2, ok2 := to.Decided()
	if !ok2 || d1 != d2 {
		return fmt.Errorf("%w: %s → %s", ErrRevokedDecision, d1, to.Key())
	}
	return nil
}

// Enabled returns every applicable non-crash event of the configuration:
// one SendStep per sending processor, one Deliver per (receiving
// processor, buffered message) pair, and — under an enabled omission
// policy with budget remaining — one Omit per such pair. Crash-failure
// events are enumerated separately by callers that inject failures.
func Enabled(c *Config) []Event {
	return AppendEnabled(nil, c)
}

// AppendEnabled appends the enabled non-failure events to dst and returns
// it, so hot loops can reuse one scratch slice across configurations.
func AppendEnabled(dst []Event, c *Config) []Event {
	for p := range c.States {
		switch c.KindAt(ProcID(p)) {
		case Sending:
			dst = append(dst, Event{Proc: ProcID(p), Type: SendStepEvent})
		case Receiving:
			buf := c.Buffers[p]
			for i := range buf {
				dst = append(dst, Event{Proc: ProcID(p), Type: Deliver, Msg: buf[i].ID})
			}
			// Under an enabled omission policy with budget remaining, the
			// adversary may suppress any deliverable message instead of
			// delivering it. Omissions targeting halted processors are not
			// enumerated: they consume budget without changing any
			// reachable behaviour.
			if c.omitAllowed(ProcID(p)) {
				for i := range buf {
					dst = append(dst, Event{Proc: ProcID(p), Type: Omit, Msg: buf[i].ID})
				}
			}
		}
	}
	return dst
}
