package sim

import (
	"errors"
	"fmt"
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
	if int(e.Proc) < 0 || int(e.Proc) >= c.N() {
		return false
	}
	s := c.States[e.Proc]
	switch e.Type {
	case Fail:
		// Any non-failed processor (including a halted one) may fail.
		return s.Kind() != Failed
	case SendStepEvent:
		return s.Kind() == Sending
	case Deliver:
		if s.Kind() != Receiving {
			return false
		}
		_, ok := c.Buffers[e.Proc].Find(e.Msg)
		return ok
	case Omit:
		// Structurally applicable whenever the message is buffered and the
		// target has not crashed (a halted target is fine: the live runtime
		// can suppress a delivery racing a halt, and replay must accept it).
		// Budget and mobility constraints are enforced where events are
		// *enumerated* (AppendEnabled), not here, for the same reason.
		if s.Kind() == Failed {
			return false
		}
		_, ok := c.Buffers[e.Proc].Find(e.Msg)
		return ok
	default:
		return false
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
	post, envs, m, err := transition(proto, c, e)
	if err != nil {
		return nil, Effect{}, err
	}
	next := c.Clone()
	eff := Effect{Event: e}
	next.commit(e, post, envs, m, &eff)
	return next, eff, nil
}

// ApplyInPlace is Apply for a caller that owns c and drops the predecessor:
// c becomes e(C) without the per-event Clone (states, buffer headers and the
// N×N channel counters) and without an Effect, which a walk that keeps no
// history has no use for. The checks and the errors are Apply's; on an error
// c is left as it was.
func (c *Config) ApplyInPlace(proto Protocol, e Event) error {
	post, envs, m, err := transition(proto, c, e)
	if err != nil {
		return err
	}
	c.commit(e, post, envs, m, nil)
	return nil
}

// PostState returns the local state e.Proc holds in e(C) without building
// e(C): the transition and every check Apply runs on it, with Apply's
// errors, and nothing written. It answers "what would this step do to its
// processor?" for schedulers that choose from the current configuration.
func PostState(proto Protocol, c *Config, e Event) (State, error) {
	post, _, _, err := transition(proto, c, e)
	return post, err
}

// transition is the reading half of applying e at c: applicability, then
// the protocol's step — the stepping processor's post-state, the envelope a
// sending step emits (at most one) and the message a delivery or an
// omission consumes. Every check that can fail is here; nothing is written.
func transition(proto Protocol, c *Config, e Event) (post State, envs []Envelope, m Message, err error) {
	if !Applicable(c, e) {
		return nil, nil, Message{}, fmt.Errorf("%w: %s", ErrNotApplicable, e)
	}
	p := e.Proc
	switch e.Type {
	case Fail:
		post = FailedStateFor(p)

	case SendStepEvent:
		post, envs = proto.SendStep(p, c.States[p])
		if len(envs) > 1 {
			return nil, nil, Message{}, fmt.Errorf("%w: %s emitted %d messages", ErrMultiSend, p, len(envs))
		}
		if err := checkTransition(c.States[p], post); err != nil {
			return nil, nil, Message{}, fmt.Errorf("%s send step: %w", p, err)
		}
		for _, env := range envs {
			if env.To == p {
				return nil, nil, Message{}, fmt.Errorf("%w: from %s", ErrSelfSend, p)
			}
			if int(env.To) < 0 || int(env.To) >= c.N() {
				return nil, nil, Message{}, fmt.Errorf("sim: %s sent to out-of-range %s", p, env.To)
			}
		}

	case Deliver:
		m, _ = c.Buffers[p].Find(e.Msg)
		post = proto.Receive(p, c.States[p], m)
		if err := checkTransition(c.States[p], post); err != nil {
			return nil, nil, Message{}, fmt.Errorf("%s receiving %s: %w", p, m.ID, err)
		}

	case Omit:
		m, _ = c.Buffers[p].Find(e.Msg)
		post = c.States[p]
	}
	return post, envs, m, nil
}

// commit is the writing half: it turns c, a configuration at which
// transition accepted e (or a clone of one), into e(C). It cannot fail. A
// non-nil eff, already carrying the event, collects what the step sent and
// consumed.
func (c *Config) commit(e Event, post State, envs []Envelope, m Message, eff *Effect) {
	p := e.Proc
	send := func(to ProcID, payload Payload, notice bool) {
		sent := Message{
			ID:      MsgID{From: p, To: to, Seq: c.nextSeq(p, to)},
			Payload: payload,
			Notice:  notice,
		}.Memoized()
		c.addMessage(to, sent)
		if eff != nil {
			eff.Sent = append(eff.Sent, sent)
		}
	}

	switch e.Type {
	case Fail:
		// The paper models failure as two steps: enter z_a, broadcast
		// failed(p) to P−{p}, then move to the absorbing z_b. We apply
		// both atomically; the intermediate z_a is never observable in
		// our configurations, and the net effect — notices everywhere,
		// no further sends, no restart — is identical.
		c.setState(p, post)
		c.noteFail(p)
		for q := 0; q < c.N(); q++ {
			if ProcID(q) != p {
				send(ProcID(q), nil, true)
			}
		}

	case SendStepEvent:
		c.setState(p, post)
		for _, env := range envs {
			send(env.To, env.Payload, false)
		}

	case Deliver:
		c.setState(p, post)
		c.removeMessage(p, m)
		c.noteDeliver(p)
		if eff != nil {
			received := m
			eff.Received = &received
		}

	case Omit:
		c.removeMessage(p, m)
		c.noteOmit(p)
		if eff != nil {
			omitted := m
			eff.Omitted = &omitted
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
	for p, s := range c.States {
		switch s.Kind() {
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

// ApplySchedule applies a whole schedule to a configuration, returning the
// final configuration and the per-event effects. It stops at the first
// inapplicable event.
func ApplySchedule(proto Protocol, c *Config, sched Schedule) (*Config, []Effect, error) {
	effects := make([]Effect, 0, len(sched))
	cur := c
	for i, e := range sched {
		next, eff, err := Apply(proto, cur, e)
		if err != nil {
			return cur, effects, fmt.Errorf("event %d: %w", i, err)
		}
		effects = append(effects, eff)
		cur = next
	}
	return cur, effects, nil
}
