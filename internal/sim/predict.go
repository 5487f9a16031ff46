package sim

import "repro/internal/fingerprint"

// Predicted is a Predictor result: the successor configuration's
// fingerprint, the visible decision of the stepping processor's
// post-state, and — for sending steps that emit a message — the identity
// the sent message would get. These are the post-state facts explorers and
// scheme enumeration need per skipped edge.
type Predicted struct {
	CfgFP    fingerprint.Digest
	Decision Decision
	Decided  bool
	// Sent/SentID describe the message a predicted sending step emits
	// (sequence number included). Failure notices are not reported here;
	// only SendStepEvent predictions set these fields.
	Sent   bool
	SentID MsgID
}

// Predictor is a transition cache. It remembers the two halves of
// transition that call the protocol — sendStep and receiveStep — by the
// digests of their inputs, with the post-state's digest and a sent
// payload's key filled in, so a repeated transition costs one map probe
// instead of a protocol callback plus state hashing. Transition functions
// are pure (Init/Receive/SendStep depend only on their arguments — the ccvet
// purity analyzer enforces it), and states and payloads are immutable values
// that configurations already share, so a remembered step builds a successor
// as well as the protocol would.
//
// Like the explorers' fingerprint dedup itself, the cache identifies inputs
// by 128-bit digest: a hash collision could return the wrong remembered
// step, which the reference walks of the differential suites (every edge a
// plain Apply) would expose. Its keys do not name the protocol, so one
// Predictor serves one protocol. It is a plain map, not safe for concurrent
// use: its callers are the checker's and the scheme enumerator's walks, each
// on one goroutine.
type Predictor struct {
	// memo maps a transition's cache key to its step; an invalid
	// transition is remembered as the zero step.
	memo map[fingerprint.Digest]step
}

// NewPredictor returns an empty transition cache.
func NewPredictor() *Predictor {
	return &Predictor{memo: make(map[fingerprint.Digest]step)}
}

// recall is transition through the cache, with the post-state's digest and
// a sent payload's key filled in. ok=false means e is inapplicable or the
// cache remembers the transition as invalid: the caller falls back to
// transition for Apply's exact error.
func (pr *Predictor) recall(proto Protocol, c *Config, e Event) (step, bool) {
	m, ok := c.applicable(e)
	if !ok {
		return step{}, false
	}
	p := e.Proc
	stateD := c.StateDigestAt(int(p))
	var key fingerprint.Digest
	switch e.Type {
	case Fail:
		post := FailedStateFor(p)
		return step{post: post, postD: StateDigest(post)}, true
	case Omit:
		return step{post: c.States[p], m: m}, true
	case SendStepEvent:
		key = sendCacheKey(p, stateD)
	default: // Deliver
		key = deliverCacheKey(p, stateD, m.Digest())
	}
	st, seen := pr.memo[key]
	if !seen {
		var err error
		if e.Type == SendStepEvent {
			st, err = sendStep(proto, p, c.States[p], c.N())
		} else {
			st, err = receiveStep(proto, p, c.States[p], *m)
		}
		if err == nil {
			st.postD = StateDigest(st.post)
			if st.sends {
				st.payloadKey = st.env.Payload.Key()
			}
		}
		pr.memo[key] = st
	}
	st.m = m
	return st, st.post != nil
}

// deliverCacheKey identifies a Receive transition by processor, state
// digest, and message digest.
func deliverCacheKey(p ProcID, stateD, msgD fingerprint.Digest) fingerprint.Digest {
	h := fingerprint.New()
	h.WriteUint64(1<<32 | uint64(uint32(p)))
	h.WriteUint64(stateD.Lo)
	h.WriteUint64(stateD.Hi)
	h.WriteUint64(msgD.Lo)
	h.WriteUint64(msgD.Hi)
	return h.Sum()
}

// sendCacheKey identifies a SendStep transition by processor and state
// digest.
func sendCacheKey(p ProcID, stateD fingerprint.Digest) fingerprint.Digest {
	h := fingerprint.New()
	h.WriteUint64(2<<32 | uint64(uint32(p)))
	h.WriteUint64(stateD.Lo)
	h.WriteUint64(stateD.Hi)
	return h.Sum()
}

// Predict computes the fingerprint e(C) would have, plus the post-state's
// visible decision and the message a sending step emits, without building
// e(C). The explorers use it to recognize already-visited successors and
// skip building them. ok=false means the event is inapplicable or irregular
// and the caller must fall back to Apply for the authoritative error. A
// successful prediction is exact: Apply(proto, c, e) yields a configuration
// whose Fingerprint equals CfgFP (the sim tests assert this over explored
// spaces).
func (pr *Predictor) Predict(proto Protocol, c *Config, e Event) (Predicted, bool) {
	st, ok := pr.recall(proto, c, e)
	if !ok {
		return Predicted{}, false
	}
	out := Predicted{CfgFP: c.fingerprintAfter(e, st)}
	out.Decision, out.Decided = st.post.Decided()
	if st.sends {
		out.Sent = true
		out.SentID = MsgID{From: e.Proc, To: st.env.To, Seq: c.peekSeq(e.Proc, st.env.To)}
	}
	return out, true
}

// Materialize is Apply through the transition cache: a transition the cache
// has seen costs neither a protocol callback nor a state rehash — both are
// paid once per distinct transition instead of once per edge. Any event the
// cache cannot vouch for is routed through Apply, so the caller sees the
// authoritative error.
func (pr *Predictor) Materialize(proto Protocol, c *Config, e Event) (*Config, Effect, error) {
	st, ok := pr.recall(proto, c, e)
	if !ok {
		return Apply(proto, c, e)
	}
	next, eff := c.successor(e, st)
	return next, eff, nil
}
