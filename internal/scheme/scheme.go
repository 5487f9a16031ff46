// Package scheme implements the paper's schemes: the scheme of a protocol Q
// is the set of communication patterns of all failure-free executions of Q
// (Section 3). Schemes are computed by exhaustive exploration of every
// failure-free delivery order, deduplicating interleavings that lead to the
// same configuration with the same causal history. That history — what
// each processor may know, and each sent message's causal past — is kept
// as bitsets over the enumeration's dense message indices, and a
// pattern.Pattern is built only for a maximal execution.
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
	"math/bits"
	"slices"
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
func (s *Set) Add(p *pattern.Pattern) bool { return s.addKeyed(p.Key(), p) }

// addKeyed is Add for a pattern whose key k is already known.
func (s *Set) addKeyed(k string, p *pattern.Pattern) bool {
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
// needed to extend the pattern — which messages each processor may know, and
// the pattern of sends so far — over the enumeration's dense message indices
// (enumerator.intern). A bitset over indices is exactly a set of messages:
// a processor's knowledge set, or a message's causal past.
//
// Nodes are recycled (enumerator.free): a built successor is written into a
// node the walk is done with, configuration and buffers included, so a
// node's slices are its own. Only the past bitsets its pattern entries
// point to are shared, and those are immutable once frozen.
type node struct {
	cfg *sim.Config
	// known holds the N knowledge sets, one row of w words per processor:
	// known[p*w:(p+1)*w] is every message whose contents p may know. Rows
	// read missing high words as zero, so a node built before the index
	// space grew stays valid under the wider width.
	w     int
	known []uint64
	// pat is the pattern so far: one entry per sent message, in send
	// order. A run sends each message once, so an index has at most one
	// entry, and a delivery finds the past it propagates here.
	pat []entry

	// patFP is the multiset sum of entryDigest over the pattern's
	// messages; knownSum[p] is the multiset sum of sim.MsgIDDigest over
	// p's knowledge set; knownFP is the salted sum of the knownSum terms.
	// Together with cfg.Fingerprint they form the node fingerprint (see
	// fp).
	patFP    fingerprint.Digest
	knownSum []fingerprint.Digest
	knownFP  fingerprint.Digest
}

// entry is one pattern message: its index and its causal past, the
// sender's knowledge set when it was sent. past is frozen (enumerator.freeze)
// and shared by every descendant of the node that sent it.
type entry struct {
	idx  int32
	past []uint64
}

// row is processor p's knowledge set.
func (nd *node) row(p sim.ProcID) []uint64 {
	return nd.known[int(p)*nd.w : (int(p)+1)*nd.w]
}

// pastOf returns the causal past of the message with index i, or nil when
// the pattern does not hold it.
func (nd *node) pastOf(i int32) []uint64 {
	for k := range nd.pat {
		if nd.pat[k].idx == i {
			return nd.pat[k].past
		}
	}
	return nil
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

// knownFPWith is knownFP with p's knowledge sum replaced by sum.
func (nd *node) knownFPWith(p sim.ProcID, sum fingerprint.Digest) fingerprint.Digest {
	salt := saltKnownBase + uint64(p)
	return nd.knownFP.Sub(nd.knownSum[p].Mixed(salt)).Add(sum.Mixed(salt))
}

// setKnownSum replaces p's knowledge sum, keeping knownFP in step.
func (nd *node) setKnownSum(p sim.ProcID, sum fingerprint.Digest) {
	nd.knownFP = nd.knownFPWith(p, sum)
	nd.knownSum[p] = sum
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

// slabWords is how many words of frozen pasts one slab allocation holds.
const slabWords = 4096

// enumerator carries the walks of one protocol: the dedup machinery (the
// visited set of node fingerprints, reset per walk, and the transition
// cache), the dense message indices every node's bitsets are over, and the
// recycled nodes.
type enumerator struct {
	proto   sim.Protocol
	n       int
	visited *frontier.SeqVisited
	pr      *sim.Predictor
	// one is the width-1 memo (no permutations) predictSeen shifts by.
	one *sim.PermuteMemo
	// chans[from*n+to][seq-1] is the index of message (from, to, seq), or
	// -1 before it is interned; ids and digs are indexed by it. words is
	// the bitset width the indices interned so far need.
	chans [][]int32
	ids   []sim.MsgID
	digs  []fingerprint.Digest
	words int
	// slab is where freeze copies pasts to: pasts are never written after
	// that, so they share backing arrays and are allocated slabWords at a
	// time.
	slab []uint64
	// free holds nodes the walk is done with — stepped, or built and
	// rejected — whose node and configuration the next built successor is
	// written into. Nothing reads a node after that: queue slots are
	// nilled, and a maximal node's pattern is built before it is released.
	free []*node
	// maximal holds every pattern a maximal node has had, by patFP, built
	// and keyed once for all walks; walk numbers the current walk.
	maximal map[fingerprint.Digest]*maximalPattern
	walk    int
	// events and eff are the walk's scratch, reused across nodes.
	events []sim.Event
	eff    sim.Effect
}

// maximalPattern is a pattern of some maximal node, with its key and the
// last walk that added it to its Set.
type maximalPattern struct {
	key  string
	pat  *pattern.Pattern
	walk int
}

func newEnumerator(proto sim.Protocol) *enumerator {
	n := proto.N()
	return &enumerator{
		proto:   proto,
		n:       n,
		visited: frontier.NewSeqVisited(frontier.DedupFingerprint),
		pr:      sim.NewPredictor(),
		one:     sim.NewPermuteMemo(nil),
		chans:   make([][]int32, n*n),
		words:   1,
		maximal: make(map[fingerprint.Digest]*maximalPattern),
	}
}

// intern returns id's index, assigning the next one the first time id is
// seen.
func (e *enumerator) intern(id sim.MsgID) int32 {
	ch := &e.chans[int(id.From)*e.n+int(id.To)]
	k := id.Seq - 1
	for len(*ch) <= k {
		*ch = append(*ch, -1)
	}
	if i := (*ch)[k]; i >= 0 {
		return i
	}
	i := int32(len(e.ids))
	(*ch)[k] = i
	e.ids = append(e.ids, id)
	e.digs = append(e.digs, sim.MsgIDDigest(id))
	e.words = (len(e.ids) + 63) / 64
	return i
}

// freeze copies a knowledge row into the slab and returns the copy, which
// stays as it is from then on.
func (e *enumerator) freeze(row []uint64) []uint64 {
	if cap(e.slab)-len(e.slab) < len(row) {
		e.slab = make([]uint64, 0, max(slabWords, len(row)))
	}
	start := len(e.slab)
	e.slab = append(e.slab, row...)
	return e.slab[start:len(e.slab):len(e.slab)]
}

// gain is the multiset sum of digests over (past ∪ {i}) \ known: what a
// delivery of message i, whose causal past is past, adds to a knowledge
// set. With apply set it also adds those messages to known, which must
// then be wide enough to hold them.
func (e *enumerator) gain(known, past []uint64, i int32, apply bool) fingerprint.Digest {
	var sum fingerprint.Digest
	wi := int(i >> 6)
	for k := 0; k < max(len(past), wi+1); k++ {
		var w uint64
		if k < len(past) {
			w = past[k]
		}
		if k == wi {
			w |= 1 << (i & 63)
		}
		if k < len(known) {
			w &^= known[k]
		}
		if w == 0 {
			continue
		}
		if apply {
			known[k] |= w
		}
		for ; w != 0; w &= w - 1 {
			sum = sum.Add(e.digs[k<<6|bits.TrailingZeros64(w)])
		}
	}
	return sum
}

// predictSeen derives the fingerprint that ev's successor node would have
// — configuration delta by Predictor.Shift at width 1, pattern and
// knowledge deltas from the node's incremental digests and bitsets — and
// reports whether that successor is already visited, all without building
// it. false means the caller must materialize.
func (e *enumerator) predictSeen(nd *node, ev sim.Event) bool {
	vec := []fingerprint.Digest{nd.cfg.Fingerprint()}
	sh, ok := e.pr.Shift(e.proto, nd.cfg, ev, e.one, false, vec)
	if !ok {
		return false
	}
	p := ev.Proc
	patFP, knownFP := nd.patFP, nd.knownFP
	switch ev.Type {
	case sim.SendStepEvent:
		if sh.Sent {
			patFP = patFP.Add(entryDigest(sh.SentID, nd.knownSum[p]))
			knownFP = nd.knownFPWith(p, nd.knownSum[p].Add(e.digs[e.intern(sh.SentID)]))
		}
	case sim.Deliver:
		i := e.intern(ev.Msg)
		knownFP = nd.knownFPWith(p, nd.knownSum[p].Add(e.gain(nd.row(p), nd.pastOf(i), i, false)))
	default:
		// Failure events never occur in failure-free enumeration.
		return false
	}
	return e.visited.Seen(vec[0].Add(patFP.Mixed(saltPat)).Add(knownFP))
}

// rootNode is the initial node: nothing sent, nothing known.
func (e *enumerator) rootNode(inputs []sim.Bit) *node {
	start := &node{
		cfg:      sim.NewConfig(e.proto, inputs),
		w:        e.words,
		known:    make([]uint64, e.n*e.words),
		knownSum: make([]fingerprint.Digest, e.n),
	}
	for i := range start.knownSum {
		start.knownFP = start.knownFP.Add(start.knownSum[i].Mixed(saltKnownBase + uint64(i)))
	}
	return start
}

// successor builds ev's successor of nd — configuration through the
// transition cache, then the causal bookkeeping the step's effect implies —
// into a node from the free list when it has one.
func (e *enumerator) successor(nd *node, ev sim.Event) (*node, error) {
	var nxt *node
	if k := len(e.free) - 1; k >= 0 {
		nxt, e.free = e.free[k], e.free[:k]
	} else {
		nxt = &node{}
	}
	cfg, err := e.pr.Materialize(e.proto, nd.cfg, ev, nxt.cfg, &e.eff)
	if err != nil {
		e.release(nxt)
		return nil, fmt.Errorf("scheme: exploring %s: %w", e.proto.Name(), err)
	}
	nxt.cfg = cfg
	for _, m := range e.eff.Sent {
		e.intern(m.ID)
	}
	w := e.words
	nxt.w = w
	nxt.known = slices.Grow(nxt.known[:0], e.n*w)[:e.n*w]
	if nd.w == w {
		copy(nxt.known, nd.known)
	} else {
		clear(nxt.known)
		for p := range e.n {
			copy(nxt.known[p*w:], nd.row(sim.ProcID(p)))
		}
	}
	nxt.pat = append(nxt.pat[:0], nd.pat...)
	nxt.patFP, nxt.knownFP = nd.patFP, nd.knownFP
	nxt.knownSum = append(nxt.knownSum[:0], nd.knownSum...)

	p := ev.Proc
	row := nxt.row(p)
	for _, m := range e.eff.Sent {
		i := e.intern(m.ID)
		nxt.pat = append(nxt.pat, entry{idx: i, past: e.freeze(row)})
		// The entry's digest freezes the sender's knowledge sum before
		// the new message joins it — the same set the frozen row holds.
		nxt.patFP = nxt.patFP.Add(entryDigest(m.ID, nxt.knownSum[p]))
		row[i>>6] |= 1 << (i & 63)
		nxt.setKnownSum(p, nxt.knownSum[p].Add(e.digs[i]))
	}
	if r := e.eff.Received; r != nil {
		i := e.intern(r.ID)
		nxt.setKnownSum(p, nxt.knownSum[p].Add(e.gain(row, nd.pastOf(i), i, true)))
	}
	return nxt, nil
}

// release puts a node the walk is done with on the free list, dropping the
// states and buffers its configuration points to so that a parked node
// keeps nothing alive but its own slices.
func (e *enumerator) release(nd *node) {
	if nd.cfg != nil {
		clear(nd.cfg.States)
		clear(nd.cfg.Buffers)
	}
	e.free = append(e.free, nd)
}

// pattern builds nd's pattern from its entries. Every past is already
// causally closed, so the entries go in latest first: Add then finds none
// of a message's predecessors in the pattern yet and has nothing to close.
func (e *enumerator) pattern(nd *node) *pattern.Pattern {
	pat := pattern.New()
	var preds []sim.MsgID
	for k := len(nd.pat) - 1; k >= 0; k-- {
		en := nd.pat[k]
		preds = preds[:0]
		for j, w := range en.past {
			for ; w != 0; w &= w - 1 {
				preds = append(preds, e.ids[j<<6|bits.TrailingZeros64(w)])
			}
		}
		pat.Add(e.ids[en.idx], preds...)
	}
	return pat
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
	return newEnumerator(proto).enumerate(ctx, inputs, opts)
}

// enumerate is one EnumerateContext walk. An enumerator walks one input
// vector at a time; what it keeps from one walk to the next — indices,
// transition cache, free nodes, slab — names or builds nodes but never
// decides which are visited, so every walk is the walk a fresh enumerator
// would make.
func (e *enumerator) enumerate(ctx context.Context, inputs []sim.Bit, opts Options) (*Enumeration, error) {
	proto := e.proto
	if len(inputs) != proto.N() {
		return nil, fmt.Errorf("scheme: protocol %s wants %d inputs, got %d", proto.Name(), proto.N(), len(inputs))
	}
	if opts.MaxNodes < 0 {
		return nil, fmt.Errorf("scheme: MaxNodes is negative (%d)", opts.MaxNodes)
	}
	e.visited.Reset()
	e.walk++
	start := e.rootNode(inputs)
	en := &Enumeration{Set: NewSet()}
	e.visited.Admit(start.fp(), "")

	// queue holds every accepted node in admission order; slots are nilled
	// once consumed so walked nodes can be recycled.
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
		e.events = sim.AppendEnabled(e.events[:0], nd.cfg)
		if len(e.events) == 0 {
			// Maximal: nd's pattern belongs to the scheme. Many maximal
			// nodes share a pattern, across input vectors too; patFP
			// identifies it as fp identifies a node, so each is built and
			// keyed once.
			mp := e.maximal[nd.patFP]
			if mp == nil {
				pat := e.pattern(nd)
				mp = &maximalPattern{key: pat.Key(), pat: pat}
				e.maximal[nd.patFP] = mp
			}
			if mp.walk != e.walk {
				mp.walk = e.walk
				en.Set.addKeyed(mp.key, mp.pat)
			}
		}
		for _, ev := range e.events {
			// A successor whose predicted fingerprint is already visited is
			// skipped without building it.
			if e.predictSeen(nd, ev) {
				continue
			}
			nxt, err := e.successor(nd, ev)
			if err != nil {
				return nil, err
			}
			if !e.visited.Admit(nxt.fp(), "") {
				e.release(nxt)
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
		e.release(nd)
	}
	en.Visited = len(queue)
	return en, nil
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
	e := newEnumerator(proto)
	for _, inputs := range sim.AllInputs(proto.N()) {
		en, err := e.enumerate(ctx, inputs, opts)
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
