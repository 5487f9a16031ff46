// Package scheme implements the paper's schemes: the scheme of a protocol Q
// is the set of communication patterns of all failure-free executions of Q
// (Section 3). Schemes are computed by exhaustive exploration of every
// failure-free delivery order, deduplicating interleavings that lead to the
// same configuration with the same causal history.
//
// Protocol-level reduction is scheme containment: if the scheme of a
// protocol for P2 equals the scheme of some protocol for P1, then that
// protocol solves P1 "up to a renaming of states and padding of messages".
//
// Enumeration deliberately does NOT reuse the checker's state-space
// reductions (internal/checker, Options.Reduction). Those reductions are
// sound for properties of reachable configurations: ample sets drop
// interleavings whose endpoints commute, dead-letter elision identifies
// configurations that differ only in undeliverable messages, and symmetry
// folds each processor orbit onto one representative. A scheme is not a
// property of configurations — it is the set of distinct causal patterns,
// and two executions reaching the same configuration along different
// delivery orders can carry different patterns. An ample set that explores
// only one of two commuting deliveries would silently drop the pattern of
// the other order; orbit-folding would conflate patterns that differ only
// by a processor relabeling, which the paper's scheme equality does not
// allow (patterns name positions, and e.g. the perverse protocol's four
// patterns are distinguished by which fixed processors message each
// other). Scheme nodes therefore dedup on (configuration, pattern,
// knowledge) exactly, and the only safe pruning is that exact-duplicate
// join of interleavings with identical causal histories.
package scheme

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fingerprint"
	"repro/internal/frontier"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// Fingerprint salts for the scheme-specific node components. Configuration
// contributions are salted inside sim; these cover the causal bookkeeping a
// scheme node adds on top (the pattern so far and each processor's
// knowledge set), so a node fingerprint separates all three layers.
const (
	saltPat       uint64 = 0x06_0000_0000
	saltKnownBase uint64 = 0x07_0000_0000 // + processor index
)

// Set is a set of communication patterns, keyed canonically.
type Set struct {
	patterns map[string]*pattern.Pattern
}

// NewSet returns an empty pattern set.
func NewSet() *Set { return &Set{patterns: make(map[string]*pattern.Pattern)} }

// Add inserts a pattern, returning whether it was new.
func (s *Set) Add(p *pattern.Pattern) bool {
	k := p.Key()
	if _, ok := s.patterns[k]; ok {
		return false
	}
	s.patterns[k] = p
	return true
}

// Len returns the number of distinct patterns.
func (s *Set) Len() int { return len(s.patterns) }

// Contains reports whether the set holds an equal pattern.
func (s *Set) Contains(p *pattern.Pattern) bool {
	_, ok := s.patterns[p.Key()]
	return ok
}

// SubsetOf reports whether every pattern of s belongs to t.
func (s *Set) SubsetOf(t *Set) bool {
	for k := range s.patterns { //ccvet:ignore detrange membership test only; order is unobservable
		if _, ok := t.patterns[k]; !ok {
			return false
		}
	}
	return true
}

// Equal reports whether the two sets hold exactly the same patterns.
func (s *Set) Equal(t *Set) bool { return s.SubsetOf(t) && t.SubsetOf(s) }

// Union merges t into s.
func (s *Set) Union(t *Set) {
	for k, p := range t.patterns { //ccvet:ignore detrange keyed insertion; order is unobservable
		s.patterns[k] = p
	}
}

// Patterns returns the patterns sorted by canonical key, for deterministic
// iteration.
func (s *Set) Patterns() []*pattern.Pattern {
	keys := make([]string, 0, len(s.patterns))
	for k := range s.patterns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*pattern.Pattern, len(keys))
	for i, k := range keys {
		out[i] = s.patterns[k]
	}
	return out
}

// Keys returns the sorted canonical keys.
func (s *Set) Keys() []string {
	keys := make([]string, 0, len(s.patterns))
	for k := range s.patterns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Options bounds scheme enumeration.
type Options struct {
	// MaxNodes caps the number of distinct exploration nodes (default
	// sim.DefaultMaxNodes, the budget shared with checker.Options).
	// Enumeration fails rather than silently truncating.
	MaxNodes int
	// Parallelism is pinned by bench/explore.go.
	//
	// Deprecated: ignored; the enumerator is sequential.
	Parallelism int
}

func (o Options) maxNodes() int {
	if o.MaxNodes == 0 {
		return sim.DefaultMaxNodes
	}
	return o.MaxNodes
}

// BudgetError reports that enumeration exceeded its node budget.
type BudgetError struct {
	Protocol string
	Nodes    int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("scheme: enumeration of %s exceeded %d nodes", e.Protocol, e.Nodes)
}

// Status reports how an enumeration ended; the zero value is Complete.
type Status int

const (
	// StatusComplete means every failure-free execution was enumerated.
	StatusComplete Status = iota
	// StatusInterrupted means the context was cancelled mid-enumeration.
	StatusInterrupted
	// StatusExhausted means the node budget ran out.
	StatusExhausted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusComplete:
		return "complete"
	case StatusInterrupted:
		return "interrupted"
	case StatusExhausted:
		return "budget-exhausted"
	default:
		return "invalid"
	}
}

// Partial reports whether the enumeration covered only part of the space.
func (s Status) Partial() bool { return s != StatusComplete }

// Enumeration is the (possibly partial) result of enumerating failure-free
// executions: the patterns of every maximal execution reached so far,
// together with how the walk ended. A partial Set is a genuine subset of the
// scheme — useful for under-approximation — and is returned instead of being
// discarded on cancellation or budget exhaustion.
type Enumeration struct {
	Set      *Set
	Status   Status
	Visited  int
	Frontier int
}

// node is one exploration state: a configuration plus the causal bookkeeping
// needed to extend the pattern (which messages each processor may know, and
// the pattern of sends so far).
//
// Nodes are cloned copy-on-write per successor edge: the pattern and
// sendPast map are shared on deliveries (only sends extend them), the
// knowledge sets are shared except the stepping processor's, and the
// fingerprint components are maintained incrementally alongside.
type node struct {
	cfg   *sim.Config
	pat   *pattern.Pattern
	known []map[sim.MsgID]struct{}
	// sendPast holds the frozen causal past of every sent message, so
	// deliveries can propagate knowledge. The pattern stores the same
	// data; this map just avoids re-deriving it per delivery.
	sendPast map[sim.MsgID][]sim.MsgID

	// patFP is the multiset sum of entryDigest over the pattern's
	// messages; knownSum[p] is the multiset sum of sim.MsgIDDigest over
	// known[p]; knownFP is the salted sum of the knownSum terms. Together
	// with cfg.Fingerprint they form the node fingerprint (see fp).
	patFP    fingerprint.Digest
	knownSum []fingerprint.Digest
	knownFP  fingerprint.Digest
}

// fp is the node's 128-bit fingerprint: configuration, pattern, and
// knowledge contributions under separating salts. It identifies exactly
// what the tests' canonical node key identifies, up to hash collision.
func (nd *node) fp() fingerprint.Digest {
	return nd.cfg.Fingerprint().Add(nd.patFP.Mixed(saltPat)).Add(nd.knownFP)
}

// entryDigest fingerprints one pattern entry: a message identity plus the
// multiset sum of its causal past's identities.
func entryDigest(id sim.MsgID, pastSum fingerprint.Digest) fingerprint.Digest {
	h := fingerprint.New()
	h.WriteUint64(uint64(id.From)<<32 | uint64(uint32(id.To)))
	h.WriteUint64(uint64(id.Seq))
	h.WriteUint64(pastSum.Lo)
	h.WriteUint64(pastSum.Hi)
	return h.Sum()
}

// addKnown inserts id into p's knowledge set, keeping the knowledge
// digests in step. The membership guard is what keeps the multiset sums
// faithful to set semantics.
func (nd *node) addKnown(p sim.ProcID, id sim.MsgID) {
	if _, ok := nd.known[p][id]; ok {
		return
	}
	nd.known[p][id] = struct{}{}
	old := nd.knownSum[p]
	nd.knownSum[p] = old.Add(sim.MsgIDDigest(id))
	salt := saltKnownBase + uint64(p)
	nd.knownFP = nd.knownFP.Sub(old.Mixed(salt)).Add(nd.knownSum[p].Mixed(salt))
}

// cloneFor clones the node for applying event e, copying only what e can
// mutate. applyEffect touches exactly: the stepping processor's knowledge
// set (any event), and the pattern plus sendPast (sending steps only — a
// delivery reads them but never writes). Everything else — the other
// knowledge sets, every stored past slice, every pattern entry — is
// immutable once created and shared outright.
func (nd *node) cloneFor(e sim.Event) *node {
	out := &node{
		cfg:      nd.cfg, // replaced by the applied config
		pat:      nd.pat,
		known:    append([]map[sim.MsgID]struct{}(nil), nd.known...),
		sendPast: nd.sendPast,
		patFP:    nd.patFP,
		knownSum: append([]fingerprint.Digest(nil), nd.knownSum...),
		knownFP:  nd.knownFP,
	}
	p := e.Proc
	cp := make(map[sim.MsgID]struct{}, len(nd.known[p])+2)
	for id := range nd.known[p] { //ccvet:ignore detrange map copy; insertion order is unobservable
		cp[id] = struct{}{}
	}
	out.known[p] = cp
	if e.Type == sim.SendStepEvent {
		out.pat = nd.pat.Clone()
		sp := make(map[sim.MsgID][]sim.MsgID, len(nd.sendPast)+1)
		for id, past := range nd.sendPast { //ccvet:ignore detrange map copy; insertion order is unobservable
			sp[id] = past
		}
		out.sendPast = sp
	}
	return out
}

// Enumerate computes the set of communication patterns of all failure-free
// executions of the protocol from the given inputs. On budget exhaustion the
// partial set accompanies the *BudgetError.
func Enumerate(proto sim.Protocol, inputs []sim.Bit, opts Options) (*Set, error) {
	en, err := EnumerateContext(context.Background(), proto, inputs, opts)
	if en == nil {
		return nil, err
	}
	return en.Set, err
}

// enumerator carries one enumeration's dedup machinery: the visited set of
// node fingerprints and the transition cache.
type enumerator struct {
	proto   sim.Protocol
	visited *frontier.SeqVisited
	pr      *sim.Predictor
}

// predictSeen derives the fingerprint that ev's successor node would have
// — configuration delta from the transition cache, pattern and knowledge
// deltas from the node's incremental digests — and reports whether that
// successor is already visited, all without cloning or applying. false
// means the caller must materialize.
func (e *enumerator) predictSeen(nd *node, ev sim.Event) bool {
	pred, ok := e.pr.Predict(e.proto, nd.cfg, ev)
	if !ok {
		return false
	}
	p := ev.Proc
	salt := saltKnownBase + uint64(p)
	patFP, knownFP := nd.patFP, nd.knownFP
	switch ev.Type {
	case sim.SendStepEvent:
		if pred.Sent {
			patFP = patFP.Add(entryDigest(pred.SentID, nd.knownSum[p]))
			newSum := nd.knownSum[p].Add(sim.MsgIDDigest(pred.SentID))
			knownFP = knownFP.Sub(nd.knownSum[p].Mixed(salt)).Add(newSum.Mixed(salt))
		}
	case sim.Deliver:
		newSum := nd.knownSum[p]
		known := nd.known[p]
		for _, q := range nd.sendPast[ev.Msg] {
			if _, has := known[q]; !has {
				newSum = newSum.Add(sim.MsgIDDigest(q))
			}
		}
		if _, has := known[ev.Msg]; !has {
			newSum = newSum.Add(sim.MsgIDDigest(ev.Msg))
		}
		knownFP = knownFP.Sub(nd.knownSum[p].Mixed(salt)).Add(newSum.Mixed(salt))
	default:
		// Failure events never occur in failure-free enumeration.
		return false
	}
	return e.visited.Seen(pred.CfgFP.Add(patFP.Mixed(saltPat)).Add(knownFP))
}

// rootNode is the initial node: nothing sent, nothing known.
func rootNode(proto sim.Protocol, inputs []sim.Bit) *node {
	start := &node{
		cfg:      sim.NewConfig(proto, inputs),
		pat:      pattern.New(),
		known:    make([]map[sim.MsgID]struct{}, proto.N()),
		sendPast: make(map[sim.MsgID][]sim.MsgID),
		knownSum: make([]fingerprint.Digest, proto.N()),
	}
	for i := range start.known {
		start.known[i] = make(map[sim.MsgID]struct{})
		start.knownFP = start.knownFP.Add(start.knownSum[i].Mixed(saltKnownBase + uint64(i)))
	}
	return start
}

// EnumerateContext enumerates with graceful degradation: on context
// cancellation or budget exhaustion it returns the partial Enumeration —
// every pattern completed so far, with Status and Frontier set — alongside a
// non-nil error.
//
// The walk is one breadth-first FIFO pass on the calling goroutine: nodes
// are expanded in admission order and cancellation and the budget cut it at
// a dequeue and at an admission respectively, so the Enumeration (patterns,
// Visited, Frontier, Status) is a pure function of the inputs and options.
func EnumerateContext(ctx context.Context, proto sim.Protocol, inputs []sim.Bit, opts Options) (*Enumeration, error) {
	if len(inputs) != proto.N() {
		return nil, fmt.Errorf("scheme: protocol %s wants %d inputs, got %d", proto.Name(), proto.N(), len(inputs))
	}
	if opts.MaxNodes < 0 {
		return nil, fmt.Errorf("scheme: MaxNodes is negative (%d)", opts.MaxNodes)
	}
	start := rootNode(proto, inputs)
	en := &Enumeration{Set: NewSet()}
	e := &enumerator{proto: proto, visited: frontier.NewSeqVisited(frontier.DedupFingerprint), pr: sim.NewPredictor()}
	e.visited.Admit(start.fp(), "")

	// queue holds every accepted node in admission order; slots are nilled
	// once consumed so walked nodes can be reclaimed.
	queue := []*node{start}
	head := 0
	for head < len(queue) {
		nd := queue[head]
		queue[head] = nil
		head++
		if err := ctx.Err(); err != nil {
			en.Status = StatusInterrupted
			en.Visited = len(queue)
			en.Frontier = len(queue) - head + 1
			return en, fmt.Errorf("scheme: enumeration of %s interrupted: %w", proto.Name(), err)
		}
		events := sim.Enabled(nd.cfg)
		if len(events) == 0 {
			// Maximal: nd's pattern belongs to the scheme.
			en.Set.Add(nd.pat)
		}
		for _, ev := range events {
			// A successor whose predicted fingerprint is already visited is
			// skipped without cloning the node or applying the event.
			if e.predictSeen(nd, ev) {
				continue
			}
			cfg, eff, err := e.pr.Materialize(proto, nd.cfg, ev)
			if err != nil {
				return nil, fmt.Errorf("scheme: exploring %s: %w", proto.Name(), err)
			}
			nxt := nd.cloneFor(ev)
			nxt.cfg = cfg
			applyEffect(nxt, eff)
			if !e.visited.Admit(nxt.fp(), "") {
				continue
			}
			if len(queue) >= opts.maxNodes() {
				en.Status = StatusExhausted
				en.Visited = len(queue)
				en.Frontier = len(queue) - head + 1
				return en, &BudgetError{Protocol: proto.Name(), Nodes: opts.maxNodes()}
			}
			queue = append(queue, nxt)
		}
	}
	en.Visited = len(queue)
	return en, nil
}

// applyEffect updates a node's causal bookkeeping — sets and incremental
// digests together — for one applied event.
func applyEffect(nd *node, eff sim.Effect) {
	p := eff.Event.Proc
	for _, m := range eff.Sent {
		past := make([]sim.MsgID, 0, len(nd.known[p]))
		for id := range nd.known[p] {
			past = append(past, id)
		}
		sort.Slice(past, func(i, j int) bool { return past[i].Less(past[j]) })
		nd.sendPast[m.ID] = past
		nd.pat.Add(m.ID, past...)
		// The pattern entry's digest freezes the sender's knowledge sum
		// before the new message joins it — the same set `past` captures.
		nd.patFP = nd.patFP.Add(entryDigest(m.ID, nd.knownSum[p]))
		nd.addKnown(p, m.ID)
	}
	if eff.Received != nil {
		id := eff.Received.ID
		for _, q := range nd.sendPast[id] {
			nd.addKnown(p, q)
		}
		nd.addKnown(p, id)
	}
}

// Of computes the full scheme of a protocol: the union of the pattern sets
// over every input vector (all failure-free executions from every initial
// configuration).
func Of(proto sim.Protocol, opts Options) (*Set, error) {
	en, err := OfContext(context.Background(), proto, opts)
	if en == nil {
		return nil, err
	}
	return en.Set, err
}

// OfContext computes the full scheme with graceful degradation: on
// cancellation or budget exhaustion the union of every pattern found so far
// accompanies the error, with Status naming the cutoff.
func OfContext(ctx context.Context, proto sim.Protocol, opts Options) (*Enumeration, error) {
	out := &Enumeration{Set: NewSet()}
	for _, inputs := range sim.AllInputs(proto.N()) {
		en, err := EnumerateContext(ctx, proto, inputs, opts)
		if en != nil {
			out.Set.Union(en.Set)
			out.Visited += en.Visited
			out.Frontier += en.Frontier
			out.Status = en.Status
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
