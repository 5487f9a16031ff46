package sim

import "repro/internal/fingerprint"

// PredictSuccessor computes the fingerprint that e(C) would have — and the
// post-state of the stepping processor — without materializing e(C). The
// explorer uses this to recognize already-visited successors and skip
// Clone/Apply for them entirely; only genuinely new configurations are
// materialized.
//
// Prediction runs Apply's validity checks (transition: applicability,
// single-send, self-send and range limits, decision irrevocability).
// ok=false means the event is inapplicable or the transition is irregular in
// a way Apply reports as an error; callers must fall back to Apply so that
// buggy protocols fail with exactly the same errors a walk that applies every
// edge reports. A successful prediction is exact: Apply(proto, c, e) yields a
// configuration whose Fingerprint equals the predicted digest (the sim
// tests assert this over explored spaces).
func PredictSuccessor(proto Protocol, c *Config, e Event) (fingerprint.Digest, State, bool) {
	post, envs, m, err := transition(proto, c, e)
	if err != nil {
		return fingerprint.Digest{}, nil, false
	}
	fp := c.Fingerprint()
	p, n := e.Proc, c.N()
	if e.Type != Omit {
		stateSalt := saltStateBase + uint64(p)
		fp = fp.Sub(c.stateD[p].Mixed(stateSalt)).Add(StateDigest(post).Mixed(stateSalt))
	}
	// sent is the digest term of the next message p sends to q.
	sent := func(q ProcID, payload Payload, notice bool) fingerprint.Digest {
		next := Message{ID: MsgID{From: p, To: q, Seq: c.seq[int(p)*n+int(q)] + 1}, Payload: payload, Notice: notice}
		return next.computeDigest().Mixed(saltBufferBase + uint64(q))
	}

	switch e.Type {
	case Fail:
		for q := 0; q < n; q++ {
			if ProcID(q) != p {
				fp = fp.Add(sent(ProcID(q), nil, true))
			}
		}
		return c.omissionShiftClear(fp, p), post, true
	case SendStepEvent:
		for _, env := range envs {
			fp = fp.Add(sent(env.To, env.Payload, false))
		}
		return fp, post, true
	case Deliver:
		fp = fp.Sub(m.Digest().Mixed(saltBufferBase + uint64(p)))
		return c.omissionShiftClear(fp, p), post, true
	default: // Omit
		fp = fp.Sub(m.Digest().Mixed(saltBufferBase + uint64(p)))
		return c.omissionShiftOmit(fp, p), post, true
	}
}

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

// predictEntry caches one transition's outcome, keyed by the digests of
// its inputs. Transition functions are pure (Init/Receive/SendStep depend
// only on their arguments — the ccvet purity analyzer enforces it), so a
// transition's post-state, decision, and emitted envelope are functions of
// (processor, state digest, message digest) and can be memoized across the
// millions of configurations that repeat them. States and payloads are
// immutable values that configurations already share (Clone copies only
// containers), so the entry keeps the post-state and payload themselves and
// Materialize builds a successor without calling the protocol again.
type predictEntry struct {
	valid   bool // transition passes Apply's validity checks
	post    State
	postD   fingerprint.Digest
	dec     Decision
	decided bool
	// sending steps: the emitted envelope, if any. payloadKey is the
	// payload's canonical key — enough to reconstruct the sent message's
	// key and digest once the sequence number is known.
	hasEnv     bool
	envTo      ProcID
	payload    Payload
	payloadKey string
}

// Predictor is a transition cache for fingerprint prediction. It memoizes
// Receive/SendStep outcomes by input digests, so repeated transitions cost
// one map probe instead of a protocol callback plus state hashing. Like the
// explorers' fingerprint dedup itself, the cache identifies inputs by
// 128-bit digest: a hash collision could return the wrong cached outcome,
// which the reference walks of the differential suites (every edge a plain
// Apply) would expose. It is a plain map, not safe for concurrent use: its
// callers are the checker's and the scheme enumerator's walks, each on one
// goroutine.
type Predictor struct {
	memo map[fingerprint.Digest]predictEntry
}

// NewPredictor returns an empty transition cache.
func NewPredictor() *Predictor {
	return &Predictor{memo: make(map[fingerprint.Digest]predictEntry)}
}

// sendEntry returns the cached outcome of p's sending step from c, running
// the protocol on first sight. The caller has warmed c's fingerprint cache.
func (pr *Predictor) sendEntry(proto Protocol, c *Config, p ProcID) predictEntry {
	key := sendCacheKey(p, c.stateD[p])
	ent, ok := pr.memo[key]
	if !ok {
		ent = computeSendEntry(proto, p, c.States[p])
		pr.memo[key] = ent
	}
	if ent.hasEnv && int(ent.envTo) >= c.N() {
		ent.valid = false
	}
	return ent
}

// deliverEntry is sendEntry for p receiving m.
func (pr *Predictor) deliverEntry(proto Protocol, c *Config, p ProcID, m Message) predictEntry {
	key := deliverCacheKey(p, c.stateD[p], m.Digest())
	ent, ok := pr.memo[key]
	if !ok {
		ent = computeDeliverEntry(proto, p, c.States[p], m)
		pr.memo[key] = ent
	}
	return ent
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

// Predict computes what PredictSuccessor computes, through the transition
// cache: the fingerprint e(C) would have, plus the post-state's visible
// decision. ok=false means the event is inapplicable or irregular and the
// caller must fall back to Apply for the authoritative error.
func (pr *Predictor) Predict(proto Protocol, c *Config, e Event) (Predicted, bool) {
	if int(e.Proc) < 0 || int(e.Proc) >= c.N() {
		return Predicted{}, false
	}
	base := c.Fingerprint()
	p := e.Proc
	stateSalt := saltStateBase + uint64(p)

	switch e.Type {
	case Fail, Omit:
		// Failure and omission transitions are protocol-independent and
		// already cheap (no Receive/SendStep callback); no cache entry
		// needed.
		fp, post, ok := PredictSuccessor(proto, c, e)
		if !ok {
			return Predicted{}, false
		}
		d, decided := post.Decided()
		return Predicted{CfgFP: fp, Decision: d, Decided: decided}, true

	case SendStepEvent:
		if c.States[p].Kind() != Sending {
			return Predicted{}, false
		}
		ent := pr.sendEntry(proto, c, p)
		if !ent.valid {
			return Predicted{}, false
		}
		out := Predicted{Decision: ent.dec, Decided: ent.decided}
		fp := base.Sub(c.stateD[p].Mixed(stateSalt)).Add(ent.postD.Mixed(stateSalt))
		if ent.hasEnv {
			seq := c.seq[int(p)*c.N()+int(ent.envTo)] + 1
			md := msgDigestParts(p, ent.envTo, seq, false, ent.payloadKey)
			fp = fp.Add(md.Mixed(saltBufferBase + uint64(ent.envTo)))
			out.Sent = true
			out.SentID = MsgID{From: p, To: ent.envTo, Seq: seq}
		}
		out.CfgFP = fp
		return out, true

	case Deliver:
		if c.States[p].Kind() != Receiving {
			return Predicted{}, false
		}
		m, found := c.Buffers[p].Find(e.Msg)
		if !found {
			return Predicted{}, false
		}
		ent := pr.deliverEntry(proto, c, p, m)
		if !ent.valid {
			return Predicted{}, false
		}
		fp := base.Sub(c.stateD[p].Mixed(stateSalt)).Add(ent.postD.Mixed(stateSalt))
		fp = fp.Sub(m.Digest().Mixed(saltBufferBase + uint64(p)))
		return Predicted{CfgFP: c.omissionShiftClear(fp, p), Decision: ent.dec, Decided: ent.decided}, true
	}
	return Predicted{}, false
}

// Materialize is Apply through the transition cache: it builds the real
// successor configuration from the cached post-state, its digest and the
// cached payload, so a transition the cache has seen costs neither a
// protocol callback nor a state rehash — both are paid once per distinct
// transition instead of once per edge. Any event the cache marks invalid or
// inapplicable is routed through Apply so the caller sees the authoritative
// error.
func (pr *Predictor) Materialize(proto Protocol, c *Config, e Event) (*Config, Effect, error) {
	if int(e.Proc) < 0 || int(e.Proc) >= c.N() {
		return Apply(proto, c, e)
	}
	p := e.Proc

	switch e.Type {
	case SendStepEvent:
		if c.States[p].Kind() != Sending {
			break
		}
		c.Fingerprint() // warm stateD so cache keys and setStateD apply
		ent := pr.sendEntry(proto, c, p)
		if !ent.valid {
			break
		}
		next := c.Clone()
		next.setStateD(p, ent.post, ent.postD)
		eff := Effect{Event: e}
		if ent.hasEnv {
			id := MsgID{From: p, To: ent.envTo, Seq: next.nextSeq(p, ent.envTo)}
			m := Message{
				ID:      id,
				Payload: ent.payload,
				key:     id.String() + ":" + ent.payloadKey,
				digest:  msgDigestParts(p, ent.envTo, id.Seq, false, ent.payloadKey),
			}
			next.addMessage(ent.envTo, m)
			eff.Sent = []Message{m}
		}
		return next, eff, nil

	case Deliver:
		if c.States[p].Kind() != Receiving {
			break
		}
		m, found := c.Buffers[p].Find(e.Msg)
		if !found {
			break
		}
		c.Fingerprint()
		ent := pr.deliverEntry(proto, c, p, m)
		if !ent.valid {
			break
		}
		next := c.Clone()
		next.setStateD(p, ent.post, ent.postD)
		next.removeMessage(p, m)
		next.noteDeliver(p)
		return next, Effect{Event: e, Received: &m}, nil
	}
	// Failed-state digests are cheap (no key strings) and omissions touch no
	// state at all, so Fail and Omit take the plain path with everything the
	// cache cannot vouch for.
	return Apply(proto, c, e)
}

// computeSendEntry runs one SendStep and distills it into a cache entry,
// mirroring Apply's validity checks exactly.
func computeSendEntry(proto Protocol, p ProcID, s State) predictEntry {
	s2, envs := proto.SendStep(p, s)
	if len(envs) > 1 || checkTransition(s, s2) != nil {
		return predictEntry{}
	}
	ent := predictEntry{valid: true, post: s2, postD: StateDigest(s2)}
	ent.dec, ent.decided = s2.Decided()
	for _, env := range envs {
		if env.To == p || int(env.To) < 0 {
			return predictEntry{}
		}
		ent.hasEnv = true
		ent.envTo = env.To
		ent.payload = env.Payload
		ent.payloadKey = env.Payload.Key()
	}
	return ent
}

// computeDeliverEntry runs one Receive and distills it into a cache entry.
func computeDeliverEntry(proto Protocol, p ProcID, s State, m Message) predictEntry {
	s2 := proto.Receive(p, s, m)
	if checkTransition(s, s2) != nil {
		return predictEntry{}
	}
	ent := predictEntry{valid: true, post: s2, postD: StateDigest(s2)}
	ent.dec, ent.decided = s2.Decided()
	return ent
}
