// Package checker implements the verification machinery behind the paper's
// proofs: an exhaustive model checker over the reachable configuration space
// (with fail-stop failure injection), computation of concurrency sets C(s),
// the safe-state analysis of Theorem 2, bias/committability, and a
// scenario-replay engine for the indistinguishability arguments of Theorems
// 8 and 13.
//
// The walk is asynchronous and fingerprint-partitioned: Options.Parallelism
// owner workers each hold a static shard of the 128-bit digest space and
// exchange successors over bounded channels with no global barrier
// (frontier.Pool), while a sequential canonical replay pass walks the
// stored expansions in breadth-first frontier order — re-expanding on
// demand anything the pool never reached — and alone decides acceptance,
// violation order, and budget exhaustion. The replay order is canonical,
// so the final Exploration — node counts, state census, violation order,
// FirstTrace — is byte-identical at every parallelism level, including the
// partial results returned on cancellation or budget exhaustion. See
// internal/frontier for the ownership/quiescence machinery and DESIGN.md
// for why post-hoc ordering preserves the byte-identical contract.
package checker

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/frontier"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// Options configures an exploration.
type Options struct {
	// MaxFailures bounds the number of injected failures per run.
	// Negative means N−1 (the default); zero means failure-free.
	MaxFailures int
	// OmissionBudget, when positive, additionally explores omission
	// faults: at every configuration where a delivery is enabled, the
	// adversary may instead suppress it (sim.Omit), up to this many times
	// per run. The budget is tracked inside the configuration, so
	// deduplication distinguishes "same states, different budget left".
	// Requires N ≤ 64. Zero keeps the crash-only space.
	OmissionBudget int
	// MobileOmissions, when positive with OmissionBudget, caps the number
	// of simultaneously omission-faulty processors at k — the mobile
	// omission model: the faulty set moves as suppressed processors are
	// rehabilitated by successful deliveries.
	MobileOmissions int
	// FailProcs restricts which processors may be failed (nil = all).
	FailProcs []sim.ProcID
	// Inputs restricts the initial input vectors (nil = all 2^N).
	Inputs [][]sim.Bit
	// MaxNodes caps the exploration (default sim.DefaultMaxNodes, the
	// budget shared with scheme.Options). Exceeding it is an error, never
	// a silent truncation.
	MaxNodes int
	// Parallelism is the number of owner workers the partitioned engine
	// shards the digest space across (0 = GOMAXPROCS; 1 = fully
	// sequential, no pool at all). The result is byte-identical at any
	// setting; parallelism only changes wall-clock time.
	Parallelism int
	// Problem, if non-nil, enables inline conformance checking: the
	// decision rule is checked at every decision transition, consistency
	// at every node, and termination at every terminal node. Violations
	// accumulate in Exploration.Violations (capped at 100).
	Problem *taxonomy.Problem
	// TrackTraces records parent links so the first violation comes with
	// a full event trace (FirstTrace). Costs memory proportional to the
	// node count. Under breadth-first exploration the recorded trace is a
	// shortest path to the violating configuration.
	TrackTraces bool
	// StopAtFirstViolation ends the exploration as soon as one violation
	// is found — useful when only the existence of a counterexample
	// matters.
	StopAtFirstViolation bool
	// Dedup selects the visited-set engine. The default,
	// frontier.DedupFingerprint, admits nodes by 128-bit incremental
	// fingerprint and never builds canonical key strings on the hot path;
	// frontier.DedupVerified additionally verifies every fingerprint hit
	// against the full canonical key (collisions are counted in
	// Exploration.Collisions and never merge states); and
	// frontier.DedupStrings is the collision-proof reference engine keyed
	// by full canonical strings. All three produce byte-identical
	// Explorations (the differential suite enforces it); they differ only
	// in speed and in the astronomically unlikely event of a 128-bit
	// collision.
	Dedup frontier.Dedup
	// Reduction selects state-space reductions (ample-set partial-order
	// reduction and/or symmetry canonicalization; see Reduction). The
	// default explores every interleaving. Reduced runs keep the
	// conformance verdict and terminal decision structure of the full
	// space while visiting far fewer nodes; see DESIGN.md §8 for what is
	// and is not preserved.
	Reduction Reduction
	// Clock, when non-nil, samples monotonic elapsed time for the
	// replay-share instrumentation (Exploration.ReplayWall/ReplayBlocked).
	// The checker itself never reads wall clocks — determinism-critical
	// code cannot branch on time — so callers that want the measurement
	// inject one (ccbench passes time.Since of its start).
	Clock func() time.Duration
}

func (o Options) maxNodes() int {
	if o.MaxNodes == 0 {
		return sim.DefaultMaxNodes
	}
	return o.MaxNodes
}

// omission resolves the options' omission policy.
func (o Options) omission() sim.OmissionPolicy {
	return sim.OmissionPolicy{Budget: o.OmissionBudget, Mobile: o.MobileOmissions}
}

// StateInfo aggregates everything the analysis needs to know about one
// accessible local state.
type StateInfo struct {
	// Key is the state's canonical encoding.
	Key string
	// Sample is one State value with this key.
	Sample sim.State
	// Procs lists which processors ever occupy the state.
	Procs map[sim.ProcID]struct{}
	// Inputs is the set of input vectors (encoded "0110…") under which
	// the state is accessible. "s implies X" means X holds for every
	// vector here.
	Inputs map[string]struct{}
	// Conc is the concurrency set C(s): the keys of every state that
	// occurs in the same accessible configuration as s.
	Conc map[string]struct{}
	// SeenEmptyBuffer reports whether the state ever occurs in an
	// accessible configuration in which its occupant's buffer is empty.
	// A receiving state for which this is false is an E̅ state: the
	// processor knows its buffer is not empty (Section 3).
	SeenEmptyBuffer bool
}

// Decision returns the state's visible decision.
func (si *StateInfo) Decision() sim.Decision {
	if d, ok := si.Sample.Decided(); ok {
		return d
	}
	return sim.NoDecision
}

// ImpliesAllOnes reports whether the state implies that every input is 1
// (condition (2) of the safe-state definition).
func (si *StateInfo) ImpliesAllOnes() bool {
	for vec := range si.Inputs { //ccvet:ignore detrange universally quantified predicate; order is unobservable
		if strings.ContainsRune(vec, '0') {
			return false
		}
	}
	return true
}

// ConfigRecord is the per-configuration information retained after
// exploration: interned state keys, the decision ledger (what each processor
// has ever decided by this configuration), and whether the configuration is
// terminal (quiescent).
type ConfigRecord struct {
	StateIdx  []int32
	Ledger    []sim.Decision
	InputsVec string
	Terminal  bool
}

// Status reports how an exploration ended. The zero value is Complete so
// that explorations which ran to the end need no special handling.
type Status int

const (
	// StatusComplete means the reachable space was fully explored (or the
	// exploration stopped at the first violation, as requested).
	StatusComplete Status = iota
	// StatusInterrupted means the context was cancelled mid-exploration;
	// the Exploration holds everything visited up to that point.
	StatusInterrupted
	// StatusExhausted means the node budget ran out; the Exploration holds
	// the visited prefix of the space.
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

// Partial reports whether the exploration covered only part of the space.
func (s Status) Partial() bool { return s != StatusComplete }

// Exploration is the result of exploring a protocol's configuration space.
type Exploration struct {
	Proto     sim.Protocol
	Opts      Options
	NodeCount int
	// Status records whether the exploration completed, was interrupted by
	// context cancellation, or exhausted its node budget. When Status is
	// partial, every aggregate below still describes the visited prefix —
	// partial results are returned, never discarded. The state census is
	// fed exclusively by accepted configurations, so States, Configs,
	// Violations, NodeCount, and FrontierSize are all byte-identical at
	// every parallelism level for complete and budget-exhausted runs; a
	// mid-run cancellation stops the canonical replay at a timing-dependent
	// (but still canonical-prefix) point.
	Status Status
	// FrontierSize is the number of accepted nodes the canonical walk had
	// not yet consumed when a partial exploration stopped, counting the
	// node being walked or rejected (0 for complete explorations).
	FrontierSize int
	// States maps canonical state key → aggregate info.
	States map[string]*StateInfo
	// stateKeys interns state keys for ConfigRecord.
	stateKeys []string
	stateIdx  map[string]int32
	// Configs records every distinct explored node, in breadth-first
	// discovery order.
	Configs []ConfigRecord
	// Terminals counts quiescent nodes.
	Terminals int
	// Violations lists conformance violations found when Options.Problem
	// was set, capped at 100.
	Violations []taxonomy.Violation
	// FirstTrace is the event trace leading to the first violation, when
	// Options.TrackTraces was set.
	FirstTrace []string
	// Collisions counts verified fingerprint collisions (always 0 except
	// under frontier.DedupVerified, and genuinely expected to stay 0 —
	// a nonzero value means a 2^-128-probability event, or a broken hash).
	Collisions int64
	// Reduction holds the deterministic reduction counters (zero-valued
	// for unreduced runs apart from FullNodes/FullEvents).
	Reduction ReductionStats
	// ReplayWall and ReplayBlocked measure the sequential canonical
	// replay when Options.Clock was set: total wall time of the replay
	// loop, and the portion spent blocked waiting on the prefetch pool.
	// Their difference over the exploration's wall time is the replay's
	// Amdahl share. Timing only — never part of the deterministic result.
	ReplayWall    time.Duration
	ReplayBlocked time.Duration

	// parents records trace links keyed by canonical node key (strings and
	// verified dedup); parentsFP records them keyed by node fingerprint
	// (fingerprint dedup), with rootKeys resolving root fingerprints back
	// to the canonical keys printed in a trace's "initial:" line.
	parents   map[string]parentLink
	parentsFP map[fingerprint.Digest]parentLinkFP
	rootKeys  map[fingerprint.Digest]string
}

type parentLink struct {
	parent string
	event  sim.Event
}

type parentLinkFP struct {
	parent fingerprint.Digest
	event  sim.Event
}

// traceTo reconstructs the event trace from an initial configuration to the
// node with the given key.
func (x *Exploration) traceTo(key string) []string {
	if x.parents == nil {
		return nil
	}
	var events []sim.Event
	cur := key
	for {
		link, ok := x.parents[cur]
		if !ok {
			break
		}
		events = append(events, link.event)
		cur = link.parent
	}
	out := make([]string, 0, len(events)+1)
	out = append(out, "initial: "+cur)
	for i := len(events) - 1; i >= 0; i-- {
		out = append(out, events[i].String())
	}
	return out
}

// traceToFP is traceTo for fingerprint-linked parents. The trace renders
// the same strings as the key-linked walk: event lines from the links and
// the root's canonical key from rootKeys.
func (x *Exploration) traceToFP(fp fingerprint.Digest) []string {
	if x.parentsFP == nil {
		return nil
	}
	var events []sim.Event
	cur := fp
	for {
		link, ok := x.parentsFP[cur]
		if !ok {
			break
		}
		events = append(events, link.event)
		cur = link.parent
	}
	out := make([]string, 0, len(events)+1)
	out = append(out, "initial: "+x.rootKeys[cur])
	for i := len(events) - 1; i >= 0; i-- {
		out = append(out, events[i].String())
	}
	return out
}

// addViolation appends a violation, respecting the cap, and records the
// trace to the first violating node when trace tracking is on. The
// violating node is identified by whichever handle the dedup mode tracks
// (canonical key or fingerprint).
func (x *Exploration) addViolation(v taxonomy.Violation, s *succ) {
	if len(x.Violations) == 0 {
		if x.parents != nil {
			x.FirstTrace = x.traceTo(s.key)
		} else if x.parentsFP != nil {
			x.FirstTrace = x.traceToFP(s.fp)
		}
	}
	if len(x.Violations) < 100 {
		x.Violations = append(x.Violations, v)
	}
}

// Conforms reports whether a checked exploration found no violations.
func (x *Exploration) Conforms() bool { return len(x.Violations) == 0 }

// StateKeyAt resolves an interned index back to its key.
func (x *Exploration) StateKeyAt(i int32) string { return x.stateKeys[i] }

// node is one exploration state: configuration plus the decision ledger
// (needed because total consistency constrains decisions that failure or
// amnesia later hide). The initial input vector rides along because the
// decision rule is a predicate over it.
type node struct {
	cfg    *sim.Config
	ledger []sim.Decision
	inputs []sim.Bit          // shared, read-only
	vec    string             // inputsKey(inputs)
	ckey   string             // memoized key(); empty under fingerprint dedup
	fp     fingerprint.Digest // memoized nodeFP(); zero under strings dedup
}

func (nd *node) key() string {
	var sb strings.Builder
	sb.WriteString(nd.cfg.Key())
	sb.WriteByte('!')
	for _, d := range nd.ledger {
		switch d {
		case sim.Commit:
			sb.WriteByte('C')
		case sim.Abort:
			sb.WriteByte('A')
		default:
			sb.WriteByte('-')
		}
	}
	return sb.String()
}

// saltLedger salts per-processor ledger contributions into node
// fingerprints; spaced away from the sim package's salt bases.
const saltLedger uint64 = 0x04_0000_0000

// ledgerTerm is what processor p's recorded decision contributes to a node
// fingerprint.
//
//ccvet:pure
func ledgerTerm(p sim.ProcID, dec sim.Decision) fingerprint.Digest {
	return fingerprint.OfUint64(uint64(dec)).Mixed(saltLedger + uint64(p))
}

// ledgerFP fingerprints a decision ledger as a sum of salted per-processor
// decision terms. Undecided entries contribute nothing, so a successor's
// ledger fingerprint differs from its parent's by at most the one term the
// stepping processor's new decision adds.
func ledgerFP(ledger []sim.Decision) fingerprint.Digest {
	var d fingerprint.Digest
	for p, dec := range ledger {
		if dec != sim.NoDecision {
			d = d.Add(ledgerTerm(sim.ProcID(p), dec))
		}
	}
	return d
}

// nodeFP fingerprints an exploration node: the configuration fingerprint
// plus the ledger terms. It is the hash analogue of node.key, covering
// exactly what the key string covers.
func nodeFP(nd *node) fingerprint.Digest {
	return nd.cfg.Fingerprint().Add(ledgerFP(nd.ledger))
}

func inputsKey(inputs []sim.Bit) string {
	var sb strings.Builder
	for _, b := range inputs {
		if b == sim.One {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Explore walks the reachable configuration space of the protocol over the
// requested input vectors, injecting up to MaxFailures fail-stop failures at
// every point, and aggregates states, concurrency sets, and configuration
// records.
func Explore(proto sim.Protocol, opts Options) (*Exploration, error) {
	return ExploreContext(context.Background(), proto, opts)
}

// succ is one edge generated while expanding a frontier node: the successor
// key, the event, and — when the successor was not already visited when the
// expansion ran — the precomputed node, its interned per-processor state
// keys, and its violations. Everything here is computed by the expanding
// worker; the canonical replay only orders and accepts.
type succ struct {
	key      string             // canonical node key; empty under fingerprint dedup
	fp       fingerprint.Digest // node fingerprint; routing digest under strings dedup at parallelism > 1, zero otherwise
	event    sim.Event
	edgeViol []taxonomy.Violation
	// nd is nil when the successor was already in the shared visited set
	// when the expansion ran — in which case the set's admit-implies-stored
	// invariant lets the replay fetch the materialized node from the pool.
	// Under fingerprint dedup a nil nd additionally means the successor was
	// never materialized at all: its fingerprint was derived from the
	// parent's and found already visited. Under a canonicalizing reduction
	// with the pool, nd is always set (see expandEvents): the stored class
	// representative is race-chosen and may be a different sibling, so the
	// replay must never substitute it for the canonical-order successor.
	nd        *node
	stateKeys []string
	terminal  bool
	nodeViol  []taxonomy.Violation
	// permuted marks a successor whose dedup handle was canonicalized
	// away from its own frame by a non-identity automorphism; the replay
	// counts rejected permuted successors as symmetry prunes.
	permuted bool
	// elided marks a successor whose dedup handle was computed with dead
	// letters erased (sim.Config.WithoutDeadBuffers); the replay counts
	// rejected elided successors as elision prunes.
	elided bool
}

// expansion is one frontier node's worth of generated edges. reduced marks
// an ample-set expansion (a strict subset of the enabled events); the
// replay substitutes the full expansion when the cycle proviso demands it.
type expansion struct {
	succs   []succ
	err     error
	reduced bool
}

// eventScratch pools per-expansion event slices so enumerating enabled
// events allocates nothing in steady state.
var eventScratch = sync.Pool{
	New: func() any {
		s := make([]sim.Event, 0, 64)
		return &s
	},
}

// explorer bundles the shared machinery of one exploration: the visited set
// and state aggregates are written concurrently by the pool's owner workers
// and the census goroutines (commutative updates only); everything on x is
// written solely by the sequential canonical replay.
type explorer struct {
	proto       sim.Protocol
	n           int
	opts        Options
	maxFail     int
	failAllowed []bool
	x           *Exploration
	dedup       frontier.Dedup
	visited     *frontier.VisitedSet   // strings dedup
	fpVisited   *frontier.FPVisitedSet // fingerprint dedup
	fpVerified  *frontier.FPVerifiedSet
	interner    *frontier.Interner
	states      *frontier.ShardedMap[*StateInfo]
	// pool is the asynchronous partitioned prefetch engine (nil at
	// parallelism 1); seq is the replay's own sequential visited set,
	// whose admissions — not the pool's — define the result (nil when
	// pool is nil: with no concurrent admitters the shared set already
	// fills in canonical order and serves both roles).
	pool *frontier.Pool[*succ, expansion]
	seq  *frontier.SeqVisited
	// routeFP marks strings dedup at parallelism > 1, where successors
	// additionally carry a routing digest of the canonical key so the
	// partitioned pool can shard them.
	routeFP bool
	// census streams accepted configurations into the state census.
	census *censusSink
	// keyCache memoizes state digest → interned state Key string, so the
	// fingerprint engine builds each distinct state's key exactly once for
	// the census instead of once per occurrence.
	keyCache *frontier.FPShardedMap[string]
	// predictor memoizes transition outcomes by input digests, so the fast
	// path's successor fingerprints cost map probes instead of protocol
	// callbacks plus state hashing. Fingerprint dedup only.
	predictor *sim.Predictor
	// ample enables ample-set partial-order reduction in expand; elide
	// enables dead-letter elision in the canonical dedup handle (both are
	// switched by the ample reduction modes); symPerms holds the
	// protocol's non-identity topology automorphisms when symmetry
	// canonicalization is on (empty = no usable symmetry). All resolved
	// once by initReduction.
	ample    bool
	elide    bool
	symPerms []sim.ProcPerm
	// permMemo memoizes relabelled component digests for symPerms, so
	// canonicalizeDigest permutes fingerprints, not configurations. Nil
	// under strings dedup and without symmetry.
	permMemo *sim.PermuteMemo
	// clock is Options.Clock (nil = no replay timing).
	clock func() time.Duration
}

// seen reports whether the successor's dedup handle was already visited
// when the level started expanding (workers only read; the merge writes).
func (e *explorer) seen(s *succ) bool {
	switch e.dedup {
	case frontier.DedupFingerprint:
		return e.fpVisited.Seen(s.fp)
	case frontier.DedupVerified:
		return e.fpVerified.Seen(s.fp, s.key)
	default:
		return e.visited.Seen(s.key)
	}
}

// admit marks the successor visited, reporting whether it was new. Merge
// phase only.
func (e *explorer) admit(s *succ) bool {
	switch e.dedup {
	case frontier.DedupFingerprint:
		return e.fpVisited.Add(s.fp)
	case frontier.DedupVerified:
		return e.fpVerified.Add(s.fp, s.key)
	default:
		return e.visited.Add(s.key)
	}
}

// stateKeysOf returns the interned per-processor state keys of one
// materialized configuration. Runs on whatever goroutine expands the node;
// the interner and key cache are concurrent.
func (e *explorer) stateKeysOf(nd *node) []string {
	keys := make([]string, e.n)
	for p := 0; p < e.n; p++ {
		keys[p] = e.stateKey(nd, p)
	}
	return keys
}

// censusAdd folds one accepted configuration into the concurrent state
// census. Every update is a set union, so census workers may process
// accepted nodes in any order without perturbing the result.
func (e *explorer) censusAdd(nd *node, keys []string) {
	for p := 0; p < e.n; p++ {
		pid := sim.ProcID(p)
		sample := nd.cfg.States[p]
		emptyBuffer := len(nd.cfg.Buffers[p]) == 0
		e.states.Update(keys[p], func(si *StateInfo) *StateInfo {
			if si == nil {
				si = &StateInfo{
					Key:    keys[p],
					Sample: sample,
					Procs:  make(map[sim.ProcID]struct{}),
					Inputs: make(map[string]struct{}),
					Conc:   make(map[string]struct{}),
				}
			}
			si.Procs[pid] = struct{}{}
			si.Inputs[nd.vec] = struct{}{}
			if emptyBuffer {
				si.SeenEmptyBuffer = true
			}
			// Concurrency sets: every pair of states in this
			// configuration is mutually concurrent.
			for q := 0; q < e.n; q++ {
				if q != p {
					si.Conc[keys[q]] = struct{}{}
				}
			}
			return si
		})
	}
}

// stateKey returns the interned canonical key of nd's processor-p state.
// The fingerprint engine resolves it through the digest-keyed cache so a
// state's Key string is built once per distinct state, not once per
// occurrence; the other engines intern directly (under a hash collision
// verified mode's one digest-keyed memo, permMemo, can at worst pick a
// non-minimal orbit member; a shortcut here could mislabel a state).
func (e *explorer) stateKey(nd *node, p int) string {
	if e.dedup == frontier.DedupFingerprint {
		return e.keyCache.GetOrInsert(nd.cfg.StateDigestAt(p), func() string {
			return e.interner.Intern(nd.cfg.States[p].Key())
		})
	}
	return e.interner.Intern(nd.cfg.States[p].Key())
}

// expand generates the successors of one frontier node — the ample subset
// when ample reduction applies, all of them otherwise. Runs on a pool
// owner (or on the replay goroutine, for nodes the pool never reached): it
// must not touch e.x, and its only writes go through the commutative
// interner/state/key-cache aggregates.
func (e *explorer) expand(nd *node) expansion {
	return e.expandEvents(nd, e.ample)
}

// expandFull generates every successor regardless of the ample setting;
// the replay calls it when the cycle proviso rejects a reduced expansion.
func (e *explorer) expandFull(nd *node) expansion {
	return e.expandEvents(nd, false)
}

func (e *explorer) expandEvents(nd *node, tryAmple bool) expansion {
	var out expansion
	scratch := eventScratch.Get().(*[]sim.Event)
	defer func() {
		*scratch = (*scratch)[:0]
		eventScratch.Put(scratch)
	}()
	failedCount := 0
	for p := 0; p < e.n; p++ {
		if nd.cfg.Faulty(sim.ProcID(p)) {
			failedCount++
		}
	}
	events := (*scratch)[:0]
	if tryAmple {
		if p, ok := ampleProc(nd.cfg); ok {
			events = e.appendAmpleEvents(events, p, failedCount)
			out.reduced = true
		}
	}
	if !out.reduced {
		events = sim.AppendEnabled(events, nd.cfg)
		if failedCount < e.maxFail {
			for p := 0; p < e.n; p++ {
				if e.failAllowed[p] && !nd.cfg.Faulty(sim.ProcID(p)) {
					events = append(events, sim.Event{Proc: sim.ProcID(p), Type: sim.Fail})
				}
			}
		}
	}
	*scratch = events
	out.succs = make([]succ, 0, len(events))
	// The fast path predicts each successor's fingerprint incrementally
	// from the parent's and skips materialization for already-visited
	// successors — the bulk of all edges in a dense state space. It is
	// sound only when nothing but the fingerprint is needed per seen edge:
	// fingerprint dedup, no inline conformance checking (edge violations
	// need the materialized successor), no symmetry (the incremental
	// fingerprint is the successor's own frame, not its canonical handle).
	fast := e.dedup == frontier.DedupFingerprint && e.opts.Problem == nil && !e.canonicalizing()
	for _, ev := range events {
		if fast {
			if fp, ok := e.predictSeen(nd, ev); ok {
				out.succs = append(out.succs, succ{fp: fp, event: ev})
				continue
			}
		}
		cfg, err := e.apply(nd.cfg, ev)
		if err != nil {
			out.err = fmt.Errorf("checker: exploring %s: %w", e.proto.Name(), err)
			return out
		}
		nxt := &node{cfg: cfg, ledger: updateLedger(nd.ledger, cfg), inputs: nd.inputs, vec: nd.vec}
		s := succ{event: ev}
		switch e.dedup {
		case frontier.DedupFingerprint:
			nxt.fp = nodeFP(nxt)
			s.fp = nxt.fp
		case frontier.DedupVerified:
			nxt.ckey = nxt.key()
			nxt.fp = nodeFP(nxt)
			s.key, s.fp = nxt.ckey, nxt.fp
		default:
			nxt.ckey = nxt.key()
			s.key = nxt.ckey
			if e.routeFP {
				nxt.fp = fingerprint.OfString(nxt.ckey)
				s.fp = nxt.fp
			}
		}
		if e.canonicalizing() {
			e.canonicalizeSucc(nxt, &s)
		}
		if e.opts.Problem != nil {
			s.edgeViol = decisionEdgeViolations(*e.opts.Problem, nd, nxt)
		}
		// Under a canonicalizing reduction one dedup handle covers several
		// genuinely different configurations (dead-letter and orbit
		// siblings). The pool's shared set fills in race order, so letting a
		// shared-set hit drop the materialization would leave the replay to
		// fetch whichever sibling won the speculative race — its frame,
		// buffers, and input vector would then leak into the census and the
		// recorded configurations nondeterministically. With the pool,
		// canonicalizing expansions therefore always materialize, and the
		// replay always walks the canonical-order successor's own node.
		if (e.pool != nil && e.canonicalizing()) || !e.seen(&s) {
			s.nd = nxt
			s.terminal = cfg.Quiescent()
			s.stateKeys = e.stateKeysOf(nxt)
			if e.opts.Problem != nil {
				s.nodeViol = nodeViolations(*e.opts.Problem, nxt)
			}
		}
		out.succs = append(out.succs, s)
	}
	return out
}

// apply materializes ev's successor of cfg: under fingerprint dedup through
// the transition cache, which already holds the stepped state's digest, so
// no edge rehashes a state; by plain sim.Apply under the other engines.
func (e *explorer) apply(cfg *sim.Config, ev sim.Event) (*sim.Config, error) {
	var err error
	if e.predictor != nil {
		cfg, _, err = e.predictor.Materialize(e.proto, cfg, ev)
	} else {
		cfg, _, err = sim.Apply(e.proto, cfg, ev)
	}
	return cfg, err
}

// predictSeen derives the fingerprint that ev's successor node would have
// — configuration fingerprint via the memoizing sim.Predictor, ledger
// delta from the predicted post-state's decision — and reports whether
// that successor is already in the visited set. ok=false means the caller
// must materialize: the successor is new, the event is irregular (Apply
// must produce the exact error), or the ledger transition is one the delta
// rule cannot predict.
func (e *explorer) predictSeen(nd *node, ev sim.Event) (fingerprint.Digest, bool) {
	pred, ok := e.predictor.Predict(e.proto, nd.cfg, ev)
	if !ok {
		return fingerprint.Digest{}, false
	}
	fp := nd.fp.Sub(nd.cfg.Fingerprint()).Add(pred.CfgFP)
	if d := pred.Decision; pred.Decided {
		if old := nd.ledger[ev.Proc]; old != d {
			if old != sim.NoDecision {
				// A decision change by way of an amnesic detour; the
				// ledger delta is not a single added term, so fall back
				// to the materializing path.
				return fingerprint.Digest{}, false
			}
			fp = fp.Add(ledgerTerm(ev.Proc, d))
		}
	}
	if !e.fpVisited.Seen(fp) {
		return fingerprint.Digest{}, false
	}
	return fp, true
}

// censusItem is one accepted configuration bound for the state census.
type censusItem struct {
	nd   *node
	keys []string
}

// censusSink feeds accepted configurations into the concurrent state
// census. At parallelism 1 it aggregates inline; above that it streams
// items to census goroutines over a channel so the replay's hot loop never
// pays for the O(N²) concurrency-set union. Census updates are set unions,
// so processing order never shows in the snapshot.
type censusSink struct {
	e    *explorer
	ch   chan censusItem
	wg   sync.WaitGroup
	once sync.Once
}

func (e *explorer) newCensusSink(workers int) *censusSink {
	cs := &censusSink{e: e}
	if workers <= 1 {
		return cs
	}
	cs.ch = make(chan censusItem, 256)
	for i := 0; i < workers; i++ {
		cs.wg.Add(1)
		go func() {
			defer cs.wg.Done()
			for it := range cs.ch {
				cs.e.censusAdd(it.nd, it.keys)
			}
		}()
	}
	return cs
}

func (cs *censusSink) add(nd *node, keys []string) {
	if cs.ch == nil {
		cs.e.censusAdd(nd, keys)
		return
	}
	cs.ch <- censusItem{nd: nd, keys: keys}
}

// close drains the census; idempotent so it can be deferred (releasing the
// workers when the replay re-panics a deterministic protocol panic) and
// also called on the happy path before the snapshot.
func (cs *censusSink) close() {
	cs.once.Do(func() {
		if cs.ch != nil {
			close(cs.ch)
			cs.wg.Wait()
		}
	})
}

// replayer is the sequential canonical ordering pass that turns the pool's
// unordered speculative store into a deterministic Exploration: a FIFO walk
// over accepted nodes reproducing exactly the breadth-first frontier order
// (levels, then frontier position, then event order) of a sequential
// exploration. Its own admissions (explorer.seq at parallelism > 1, the
// shared set otherwise) decide acceptance; the pool is consulted only as a
// cache of prefetched nodes and expansions, with on-demand re-expansion
// covering whatever the pool dropped — so the result is a pure function of
// the root set at every parallelism level.
type replayer struct {
	e *explorer
	// queue holds accepted nodes not yet consumed by the walk; head is
	// the next to walk. Consumed slots are nilled so a walked node's
	// memory can be reclaimed once its children are recorded.
	queue []*node
	head  int
}

// frontierLeft is the partial-stop frontier measure: accepted nodes the
// walk has not consumed, counting the node being walked (or the one whose
// acceptance was rejected).
func (r *replayer) frontierLeft() int { return len(r.queue) - r.head + 1 }

// run walks the canonical order from the synthetic root expansion to
// completion, budget exhaustion, first violation, or interruption. It also
// enforces the ample cycle proviso — a reduced expansion with an
// already-visited successor is re-expanded in full before walking — and
// counts the reduction statistics, both purely from the canonical order so
// reduced results stay byte-identical at every parallelism level.
func (r *replayer) run(ctx context.Context, roots []succ) error {
	e, x := r.e, r.e.x
	if e.clock != nil {
		start := e.clock()
		defer func() { x.ReplayWall = e.clock() - start }()
	}
	rootExp := expansion{succs: roots}
	stop, err := r.walk(nil, &rootExp)
	for err == nil && !stop && r.head < len(r.queue) {
		nd := r.queue[r.head]
		r.queue[r.head] = nil
		r.head++
		exp, cerr := r.expansionOf(ctx, nd)
		if cerr != nil {
			x.Status = StatusInterrupted
			x.FrontierSize = r.frontierLeft()
			return fmt.Errorf("checker: exploration of %s interrupted: %w", e.proto.Name(), cerr)
		}
		if exp.reduced && r.provisoHit(exp) {
			x.Reduction.ProvisoFallbacks++
			full := e.expandFull(nd)
			exp = &full
		}
		if exp.err == nil {
			if exp.reduced {
				x.Reduction.AmpleNodes++
				x.Reduction.AmpleEvents += int64(len(exp.succs))
			} else {
				x.Reduction.FullNodes++
				x.Reduction.FullEvents += int64(len(exp.succs))
			}
		}
		stop, err = r.walk(nd, exp)
	}
	return err
}

// expansionOf fetches nd's expansion from the pool when prefetched, and
// re-expands on demand otherwise — the node was dropped by the cap, a
// panic, or a stop. The context check comes first, before the prefetch
// lookup, so cancellation interrupts the walk at the same canonical
// boundary (a dequeue) whether or not the pool got ahead of it.
//
// Under a canonicalizing reduction a prefetched expansion is only reused
// when the pool's stored representative is content-identical to the
// canonical-order node (sameNode): the store keeps whichever sibling of the
// canonical class won the speculative race, and an expansion computed from
// a different sibling would leak that sibling's frame into the walk. The
// mismatch path re-expands on the replay goroutine while owners may still
// be running; that is safe because expansion reads only the immutable
// parent node and concurrent-safe interners, and under canonicalization it
// never consults the racing shared set (succs always materialize).
func (r *replayer) expansionOf(ctx context.Context, nd *node) (*expansion, error) {
	e := r.e
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.pool != nil {
		stored, exp, state := r.waitEntry(frontier.NodeKey{FP: nd.fp, Key: nd.ckey}, true)
		if state == frontier.EntryExpanded && r.reusable(stored, nd) {
			return &exp, nil
		}
		// WaitEntry only reports a miss once the pool has drained; with
		// the pool stopped by cancellation, the context error may have
		// arrived while waiting.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	exp := e.expand(nd)
	return &exp, nil
}

// waitEntry is the pool's WaitEntry with the blocked time folded into the
// replay-share instrumentation when a clock was injected.
func (r *replayer) waitEntry(k frontier.NodeKey, take bool) (*succ, expansion, frontier.EntryState) {
	if r.e.clock == nil {
		return r.e.pool.WaitEntry(k, take)
	}
	t0 := r.e.clock()
	s, exp, st := r.e.pool.WaitEntry(k, take)
	r.e.x.ReplayBlocked += r.e.clock() - t0
	return s, exp, st
}

// countPrune attributes a rejected successor to the canonicalization that
// rewrote its handle: symmetry when a non-identity automorphism won (it
// strictly improved on the already-erased identity handle), dead-letter
// elision otherwise.
func (r *replayer) countPrune(s *succ) {
	switch {
	case s.permuted:
		r.e.x.Reduction.SymmetryPrunes++
	case s.elided:
		r.e.x.Reduction.ElisionPrunes++
	}
}

// reusable reports whether a prefetched expansion — computed by a pool
// owner from the store's representative for nd's dedup handle — can stand
// in for the expansion of the canonical-order node nd. Expansion is a pure
// function of the source node's full content including the channel
// sequence counters, which the dedup handle deliberately excludes: two
// handle-equal nodes can disagree on the identities future messages would
// get, and which one the speculative store kept is a race. Under a
// canonicalizing reduction the stored node may further be a different
// class sibling entirely (other frame, other dead letters, other inputs),
// so the full own-frame content is compared; otherwise handle equality
// already pins the content (exactly under the key-bearing engines, modulo
// digest collision under fingerprint dedup) and only the counters need
// checking. A mismatch makes the caller re-expand from nd on demand.
func (r *replayer) reusable(stored *succ, nd *node) bool {
	if stored == nil || stored.nd == nil {
		return false
	}
	if stored.nd == nd {
		return true
	}
	if r.e.canonicalizing() {
		return sameNode(stored.nd, nd)
	}
	return stored.nd.cfg.SameChannelSeqs(nd.cfg)
}

// resolve admits one successor against the replay's visited set and
// resolves its materialized node: from the succ itself when the expanding
// worker materialized it, re-derived from the walked parent when the
// successor was already in the racy shared set at expansion time. The
// store's admitted-implies-stored representative is NOT adopted: it is
// content-equal by handle but its channel sequence counters may have
// drifted (and under canonicalization it may be a different class sibling
// entirely), and which representative the store kept is a race — the
// canonical replay must record the node the parallelism-1 walk would have.
// Rejected successors whose handle was rewritten by a canonicalization
// count as symmetry or elision prunes.
func (r *replayer) resolve(parent *node, s *succ) (*succ, bool, error) {
	e := r.e
	if e.pool == nil {
		if s.nd == nil || !e.admit(s) {
			r.countPrune(s)
			return nil, false, nil
		}
		return s, true, nil
	}
	if !e.seq.Admit(s.fp, s.key) {
		r.countPrune(s)
		return nil, false, nil
	}
	if s.nd == nil {
		if err := r.materialize(parent, s); err != nil {
			return nil, false, err
		}
	}
	return s, true, nil
}

// materialize builds the accepted successor's node from the walked parent —
// the same derivation expandEvents performs, applied to the canonical-order
// parent so the node's content (including channel sequence counters) is a
// pure function of the canonical walk. Only reached with the pool, for
// accepted successors whose expansion found the handle already in the
// shared set; roots are always materialized.
func (r *replayer) materialize(parent *node, s *succ) error {
	e := r.e
	if parent == nil {
		panic("checker: unmaterialized root successor")
	}
	cfg, err := e.apply(parent.cfg, s.event)
	if err != nil {
		return fmt.Errorf("checker: exploring %s: %w", e.proto.Name(), err)
	}
	nxt := &node{cfg: cfg, ledger: updateLedger(parent.ledger, cfg), inputs: parent.inputs, vec: parent.vec}
	nxt.fp, nxt.ckey = s.fp, s.key
	s.nd = nxt
	s.terminal = cfg.Quiescent()
	s.stateKeys = e.stateKeysOf(nxt)
	if e.opts.Problem != nil {
		s.nodeViol = nodeViolations(*e.opts.Problem, nxt)
	}
	return nil
}

// walk folds one node's expansion into the exploration in canonical order
// (the node's edges in event order). stop is set when the exploration
// should end with the current partial result (first violation reached, or
// budget exhausted — the latter also carries a *BudgetError).
func (r *replayer) walk(parent *node, exp *expansion) (stop bool, err error) {
	e, x := r.e, r.e.x
	if exp.err != nil {
		return false, exp.err
	}
	for j := range exp.succs {
		s := &exp.succs[j]
		if parent != nil {
			if x.parents != nil {
				if _, ok := x.parents[s.key]; !ok {
					x.parents[s.key] = parentLink{parent: parent.ckey, event: s.event}
				}
			} else if x.parentsFP != nil {
				if _, ok := x.parentsFP[s.fp]; !ok {
					x.parentsFP[s.fp] = parentLinkFP{parent: parent.fp, event: s.event}
				}
			}
		}
		for _, v := range s.edgeViol {
			x.addViolation(v, s)
		}
		if e.opts.StopAtFirstViolation && len(x.Violations) > 0 {
			return true, nil
		}
		acc, ok, rerr := r.resolve(parent, s)
		if rerr != nil {
			return false, rerr
		}
		if !ok {
			continue
		}
		if len(x.Configs) >= e.opts.maxNodes() {
			x.Status = StatusExhausted
			x.FrontierSize = r.frontierLeft()
			return true, &BudgetError{Protocol: e.proto.Name(), Nodes: e.opts.maxNodes()}
		}
		e.record(acc)
		e.census.add(acc.nd, acc.stateKeys)
		for _, v := range acc.nodeViol {
			x.addViolation(v, acc)
		}
		if e.opts.StopAtFirstViolation && len(x.Violations) > 0 {
			return true, nil
		}
		r.queue = append(r.queue, acc.nd)
	}
	return false, nil
}

// record accepts one newly discovered configuration: assigns interned state
// indices in discovery order and appends the ConfigRecord. Merge-phase only.
func (e *explorer) record(s *succ) {
	x := e.x
	idx := make([]int32, len(s.stateKeys))
	for p, key := range s.stateKeys {
		id, ok := x.stateIdx[key]
		if !ok {
			id = int32(len(x.stateKeys))
			x.stateIdx[key] = id
			x.stateKeys = append(x.stateKeys, key)
		}
		idx[p] = id
	}
	// The ledger is aliased, not copied: updateLedger builds a fresh slice
	// per node and nothing mutates one after construction, so the record
	// can share it. (Dropping the copy removed a per-node allocation from
	// the replay pass, the sequential Amdahl bottleneck.)
	x.Configs = append(x.Configs, ConfigRecord{
		StateIdx:  idx,
		Ledger:    s.nd.ledger,
		InputsVec: s.nd.vec,
		Terminal:  s.terminal,
	})
	if s.terminal {
		x.Terminals++
	}
}

// finalize publishes the aggregate state census, the node count, and (in
// verified mode) the collision count — from the replay's sequential set
// when the pool ran, so the count reflects canonical admissions only.
func (e *explorer) finalize() {
	e.census.close()
	e.x.States = e.states.Snapshot()
	e.x.NodeCount = len(e.x.Configs)
	switch {
	case e.seq != nil && e.dedup == frontier.DedupVerified:
		e.x.Collisions = e.seq.Collisions()
	case e.fpVerified != nil && e.seq == nil:
		e.x.Collisions = e.fpVerified.Collisions()
	}
}

// ExploreContext is Explore with graceful degradation: on context
// cancellation or budget exhaustion it returns the partial Exploration —
// visited nodes, aggregated states, and every violation found so far, with
// Status and FrontierSize set — alongside a non-nil error (the context's
// error or a *BudgetError). Callers that can use partial results should
// inspect the returned Exploration even when err != nil.
func ExploreContext(ctx context.Context, proto sim.Protocol, opts Options) (*Exploration, error) {
	n := proto.N()
	maxFail := opts.MaxFailures
	if maxFail < 0 {
		maxFail = n - 1
	}
	inputVecs := opts.Inputs
	if inputVecs == nil {
		inputVecs = sim.AllInputs(n)
	}
	pol := opts.omission()
	if pol.Enabled() && n > 64 {
		return nil, fmt.Errorf("checker: omission budgets support at most 64 processors, got %d", n)
	}
	failAllowed := make([]bool, n)
	if opts.FailProcs == nil {
		for i := range failAllowed {
			failAllowed[i] = true
		}
	} else {
		for _, p := range opts.FailProcs {
			failAllowed[p] = true
		}
	}

	x := &Exploration{
		Proto:    proto,
		Opts:     opts,
		stateIdx: make(map[string]int32),
	}
	if opts.TrackTraces {
		if opts.Dedup == frontier.DedupFingerprint {
			x.parentsFP = make(map[fingerprint.Digest]parentLinkFP)
			x.rootKeys = make(map[fingerprint.Digest]string)
		} else {
			x.parents = make(map[string]parentLink)
		}
	}
	e := &explorer{
		proto:       proto,
		n:           n,
		opts:        opts,
		maxFail:     maxFail,
		failAllowed: failAllowed,
		x:           x,
		dedup:       opts.Dedup,
		interner:    frontier.NewInterner(),
		states:      frontier.NewShardedMap[*StateInfo](),
	}
	switch opts.Dedup {
	case frontier.DedupFingerprint:
		e.fpVisited = frontier.NewFPVisitedSet()
		e.keyCache = frontier.NewFPShardedMap[string]()
		e.predictor = sim.NewPredictor()
	case frontier.DedupVerified:
		e.fpVerified = frontier.NewFPVerifiedSet()
	default:
		e.visited = frontier.NewVisitedSet()
	}
	e.initReduction()
	e.clock = opts.Clock

	workers := frontier.Parallelism(opts.Parallelism)
	e.routeFP = opts.Dedup == frontier.DedupStrings && workers > 1

	// Level 0: one root per requested input vector, walked through the
	// same path as every other node (no parent links, no decision edge).
	roots := make([]succ, 0, len(inputVecs))
	for _, inputs := range inputVecs {
		if len(inputs) != n {
			return nil, fmt.Errorf("checker: input vector %v has length %d, want %d", inputs, len(inputs), n)
		}
		start := &node{cfg: sim.NewConfigOmission(proto, inputs, pol), ledger: make([]sim.Decision, n), inputs: inputs, vec: inputsKey(inputs)}
		s := succ{nd: start, terminal: start.cfg.Quiescent()}
		switch opts.Dedup {
		case frontier.DedupFingerprint:
			start.fp = nodeFP(start)
			s.fp = start.fp
		case frontier.DedupVerified:
			start.ckey = start.key()
			start.fp = nodeFP(start)
			s.key, s.fp = start.ckey, start.fp
		default:
			start.ckey = start.key()
			s.key = start.ckey
			if e.routeFP {
				start.fp = fingerprint.OfString(start.ckey)
				s.fp = start.fp
			}
		}
		if e.canonicalizing() {
			// Symmetric input vectors collapse to one explored root; the
			// replay's admission keeps the first.
			e.canonicalizeSucc(start, &s)
		}
		if x.rootKeys != nil {
			// First-wins: under symmetry two roots can share a canonical
			// fingerprint, and the admitted one is the first.
			if _, ok := x.rootKeys[start.fp]; !ok {
				x.rootKeys[start.fp] = start.key()
			}
		}
		s.stateKeys = e.stateKeysOf(start)
		if opts.Problem != nil {
			s.nodeViol = nodeViolations(*opts.Problem, start)
		}
		roots = append(roots, s)
	}

	if workers > 1 {
		// The partitioned pool speculatively admits (shared set) and
		// expands ahead of the replay; it may overshoot the node budget
		// or stop early — the replay is the only authority on results.
		e.seq = frontier.NewSeqVisited(opts.Dedup)
		pool := frontier.NewPool(frontier.PoolOptions[*succ, expansion]{
			Workers: workers,
			Cap:     int64(opts.maxNodes()),
			KeyOf:   func(s *succ) frontier.NodeKey { return frontier.NodeKey{FP: s.fp, Key: s.key} },
			Admit:   func(s *succ) bool { return e.admit(s) },
			Expand:  e.expandForPool,
		})
		e.pool = pool
		rootPtrs := make([]*succ, len(roots))
		for i := range roots {
			rootPtrs[i] = &roots[i]
		}
		pool.Start(ctx, rootPtrs)
		defer pool.Close()
	}
	e.census = e.newCensusSink(workers)
	defer e.census.close()

	r := &replayer{e: e}
	err := r.run(ctx, roots)
	if err != nil {
		var be *BudgetError
		if errors.As(err, &be) {
			e.finalize()
			return x, be
		}
		if x.Status == StatusInterrupted {
			e.finalize()
			return x, err
		}
		// A protocol error (sim.Apply failed) aborts with no result,
		// matching the previous explorer.
		return nil, err
	}
	e.finalize()
	return x, nil
}

// expandForPool is the pool's Expand callback: it generates the node's
// successors and routes onward every materialized one (a nil-node succ is
// already in the shared set and needs no owner). A protocol error stops
// the pool — the replay re-derives and reports it in canonical order.
func (e *explorer) expandForPool(s *succ) (expansion, []*succ) {
	exp := e.expand(s.nd)
	if exp.err != nil {
		e.pool.Stop()
		return exp, nil
	}
	var routed []*succ
	for j := range exp.succs {
		if exp.succs[j].nd != nil {
			routed = append(routed, &exp.succs[j])
		}
	}
	return exp, routed
}

// BudgetError reports that exploration exceeded its node budget.
type BudgetError struct {
	Protocol string
	Nodes    int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("checker: exploration of %s exceeded %d nodes", e.Protocol, e.Nodes)
}

// updateLedger extends the decision ledger with any decisions visible in the
// configuration. Decisions are irrevocable (sim enforces it), so a visible
// decision can only confirm or extend the ledger.
func updateLedger(old []sim.Decision, cfg *sim.Config) []sim.Decision {
	out := append([]sim.Decision(nil), old...)
	for p, s := range cfg.States {
		if d, ok := s.Decided(); ok {
			out[p] = d
		}
	}
	return out
}

// kindOf returns the state kind for an interned index.
func (x *Exploration) kindOf(i int32) sim.StateKind {
	return x.States[x.stateKeys[i]].Sample.Kind()
}

// decisionOf returns the visible decision for an interned index.
func (x *Exploration) decisionOf(i int32) sim.Decision {
	return x.States[x.stateKeys[i]].Decision()
}
