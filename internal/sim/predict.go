package sim

import "repro/internal/fingerprint"

// Predicted is a Predict result: the fingerprint e(C) would have.
type Predicted struct {
	CfgFP fingerprint.Digest
}

// Predictor is a transition cache. It remembers the two halves of
// transition that call the protocol — sendStep and receiveStep — by the
// digests of their inputs, with the post-state's digest, kind and decision
// and a sent payload's key filled in, so a repeated transition costs one map
// probe instead of a protocol callback plus state hashing. Transition
// functions are pure (Init/Receive/SendStep depend only on their arguments —
// the ccvet purity analyzer enforces it), and states and payloads are
// immutable values that configurations already share, so a remembered step
// builds a successor as well as the protocol would.
//
// Like the explorers' fingerprint dedup itself, the cache identifies inputs
// by 128-bit digest: a hash collision could return the wrong remembered
// step, which the reference walks of the differential suites (every edge a
// plain Apply) would expose. Its keys do not name the protocol, so one
// Predictor serves one protocol. It is a plain map and slab, not safe for
// concurrent use: each of its callers — a shard of the checker's walk, one
// scheme enumerator — owns one and uses it on one goroutine at a time.
type Predictor struct {
	// memo maps a transition's cache key to its step's index in steps, a
	// slab that only grows; an invalid transition is remembered as the zero
	// step.
	memo  map[fingerprint.Digest]int32
	steps []step
	// other is the step of the last Fail or Omit recalled: those read no
	// protocol callback, so they are built per call, not remembered.
	other step
}

// NewPredictor returns an empty transition cache.
func NewPredictor() *Predictor {
	return &Predictor{memo: make(map[fingerprint.Digest]int32)}
}

// recall is transition through the cache, with the post-state's digest,
// kind and decision and a sent payload's key filled in. The step is the
// cache's own, valid until the next recall; callers only read it. ok=false
// means e is inapplicable or the cache remembers the transition as invalid:
// the caller falls back to transition for Apply's exact error.
func (pr *Predictor) recall(proto Protocol, c *Config, e Event) (st *step, m *Message, ok bool) {
	if m, ok = c.applicable(e); !ok {
		return nil, nil, false
	}
	p := e.Proc
	stateD := c.StateDigestAt(int(p))
	var key fingerprint.Digest
	switch e.Type {
	case Fail:
		post := FailedStateFor(p)
		pr.other = step{post: post, postD: StateDigest(post), kind: Failed}
		return &pr.other, m, true
	case Omit:
		pr.other = step{post: c.States[p], postD: stateD, kind: c.KindAt(p)}
		pr.other.dec, pr.other.decided = c.DecidedAt(p)
		return &pr.other, m, true
	case SendStepEvent:
		key = sendCacheKey(p, stateD)
	default: // Deliver
		key = deliverCacheKey(p, stateD, m.Digest())
	}
	i, seen := pr.memo[key]
	if !seen {
		var fresh step
		var err error
		if e.Type == SendStepEvent {
			fresh, err = sendStep(proto, p, c.States[p], c.N())
		} else {
			fresh, err = receiveStep(proto, p, c.States[p], *m)
		}
		if err == nil {
			fresh.fill()
			if fresh.sends {
				fresh.payloadKey = fresh.env.Payload.Key()
			}
		}
		i = int32(len(pr.steps))
		pr.steps = append(pr.steps, fresh)
		pr.memo[key] = i
	}
	st = &pr.steps[i]
	return st, m, st.post != nil
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

// Predict is Shift at width 1: the fingerprint e(C) would have, without
// building e(C). ok=false means the event is inapplicable or irregular.
func (pr *Predictor) Predict(proto Protocol, c *Config, e Event) (Predicted, bool) {
	vec := []fingerprint.Digest{c.Fingerprint()}
	if _, ok := pr.Shift(proto, c, e, &widthOne, false, vec); !ok {
		return Predicted{}, false
	}
	return Predicted{CfgFP: vec[0]}, true
}

// widthOne is the memo of no permutations that Predict shifts by; Shift
// never writes it.
var widthOne PermuteMemo

// Materialize is Apply through the transition cache: a transition the cache
// has seen costs neither a protocol callback nor a state rehash — both are
// paid once per distinct transition instead of once per edge. e(C) is
// written into dst, whose containers are reused (dst must not be c), or
// into a fresh configuration when dst is nil; the effect is written to eff
// when it is non-nil, reusing the backing array of its Sent, and not built
// otherwise. Any event the cache cannot vouch for is routed through
// transition, so the caller sees Apply's authoritative error, and dst is
// then left as it was.
func (pr *Predictor) Materialize(proto Protocol, c *Config, e Event, dst *Config, eff *Effect) (*Config, error) {
	st, m, ok := pr.recall(proto, c, e)
	if !ok {
		fresh, fm, err := transition(proto, c, e)
		if err != nil {
			return nil, err
		}
		st, m = &fresh, fm
	}
	if dst == nil {
		dst = &Config{}
	}
	dst.CopyFrom(c)
	if eff != nil {
		*eff = Effect{Event: e, Sent: eff.Sent[:0]}
	}
	dst.commit(e, st, m, eff)
	return dst, nil
}

// Shifted is a Predictor.Shift result: the visible decision of the stepping
// processor's post-state; whether e(C) has dead letters to erase — what
// e(C).ElidedFingerprint reports as changed; and, for a sending step that
// emits a message, the identity Apply gives it (sequence number included).
type Shifted struct {
	Decision Decision
	Decided  bool
	Elided   bool
	Sent     bool
	SentID   MsgID
}

// Shift is the one incremental rule for successor fingerprints: vec holds
// C's vector as pm.Vector fills it (with elide as given), plus any per-slot
// terms the caller keeps beside it, which pass through; Shift turns it into
// e(C)'s vector without building e(C). Fingerprints are sums of component
// terms, so it subtracts and adds the terms of exactly the components e
// changes: the state at e.Proc, the message a delivery or an omission
// consumes, the message a sending step emits or the notices a failure
// broadcasts, and — under elide — the buffer of a processor whose box goes
// dead. Terms in a dead box are never added. Under an omission policy slot
// 0 also moves the omission term; the relabelled slots carry none (see
// Vector), so a policy and permutations together are refused. At width 1
// (pm without permutations) only slot 0 moves, and slot 0 of
// c.Fingerprint() becomes e(C).Fingerprint() exactly. ok=false means the
// event is inapplicable, irregular or outside what the shift covers (a
// policy with permutations, a box revived, a state without Permuter): the
// caller builds e(C) instead, and vec is scratch.
func (pr *Predictor) Shift(proto Protocol, c *Config, e Event, pm *PermuteMemo, elide bool, vec []fingerprint.Digest) (Shifted, bool) {
	relabel := len(pm.perms) > 0
	if relabel && c.pol.Enabled() {
		return Shifted{}, false
	}
	st, consumed, ok := pr.recall(proto, c, e)
	if !ok {
		return Shifted{}, false
	}
	p := e.Proc
	preDead, postDead := elide && c.deadLetterBox(p), elide && deadKind(st.kind)
	if preDead && !postDead {
		return Shifted{}, false // a dead box never revives in the model
	}
	v := vec[1:]
	if e.Type != Omit {
		pre, salt := c.stateM[p].d, saltStateBase+uint64(p)
		vec[0] = vec[0].Sub(pre.Mixed(salt)).Add(st.postD.Mixed(salt))
		if relabel {
			from, ok := pm.stateRow(p, pre, c.States[p])
			if !ok {
				return Shifted{}, false
			}
			to, ok := pm.stateRow(p, st.postD, st.post)
			if !ok {
				return Shifted{}, false
			}
			subRow(v, from)
			addRow(v, to)
		}
	}
	if !preDead {
		buf, salt := c.Buffers[p], saltBufferBase+uint64(p)
		for j := range buf {
			if m := &buf[j]; m == consumed || postDead {
				vec[0] = vec[0].Sub(m.Digest().Mixed(salt))
				if relabel {
					subRow(v, pm.msgRow(m))
				}
			}
		}
	}
	out := Shifted{Decision: st.dec, Decided: st.decided, Elided: elide && c.deadLettersAfter(e, st, consumed)}
	switch e.Type {
	case Fail:
		for q := ProcID(0); int(q) < c.N(); q++ {
			if q != p && !(elide && c.deadLetterBox(q)) {
				id := MsgID{From: p, To: q, Seq: c.peekSeq(p, q)}
				d := msgDigestParts(p, q, id.Seq, true, "")
				vec[0] = vec[0].Add(d.Mixed(saltBufferBase + uint64(q)))
				if relabel {
					addRow(v, pm.msgRow(&Message{ID: id, Notice: true, digest: d}))
				}
			}
		}
		vec[0] = c.omissionShiftClear(vec[0], p)
	case SendStepEvent:
		if !st.sends {
			break
		}
		to := st.env.To
		out.Sent, out.SentID = true, MsgID{From: p, To: to, Seq: c.peekSeq(p, to)}
		if !(elide && c.deadLetterBox(to)) {
			d := msgDigestParts(p, to, out.SentID.Seq, false, st.payloadKey)
			vec[0] = vec[0].Add(d.Mixed(saltBufferBase + uint64(to)))
			if relabel {
				addRow(v, pm.msgRow(&Message{ID: out.SentID, Payload: st.env.Payload, digest: d}))
			}
		}
	case Deliver:
		vec[0] = c.omissionShiftClear(vec[0], p)
	default: // Omit
		vec[0] = c.omissionShiftOmit(vec[0], p)
	}
	return out, true
}

// deadLettersAfter reports whether e(C), with st the step e takes and m the
// message it consumes, has a failed or halted processor with a nonempty
// buffer.
func (c *Config) deadLettersAfter(e Event, st *step, m *Message) bool {
	for q := range c.States {
		n, k := len(c.Buffers[q]), c.KindAt(ProcID(q))
		switch {
		case ProcID(q) == e.Proc:
			if k = st.kind; m != nil {
				n--
			}
		case e.Type == Fail || (st.sends && st.env.To == ProcID(q)):
			n++
		}
		if n > 0 && deadKind(k) {
			return true
		}
	}
	return false
}
