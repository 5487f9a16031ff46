// Package checker implements the verification machinery behind the paper's
// proofs: an exhaustive model checker over the reachable configuration space
// (with fail-stop failure injection), computation of concurrency sets C(s),
// the safe-state analysis of Theorem 2, bias/committability, and a
// scenario-replay engine for the indistinguishability arguments of Theorems
// 8 and 13.
//
// The explorer's result is that of one breadth-first FIFO walk: nodes are
// stepped in the order they were admitted to the visited set, and each of a
// node's successors is offered to the visited set, in event order, as soon
// as it is built — so admission order is result order, and state ids, keys
// and census entries exist only for admitted nodes. The walk runs as one
// shard per orbit of input vectors (per vector without symmetry), since no
// two orbits' roots reach a common node: the shards step a level at a time
// on every core, and a sequential fold replays their records in the joint
// walk's order (see explorer.run). Node
// counts, the state census, violation order, and counterexample are
// therefore a pure function of the root set and the options, whatever the
// number of cores — including the partial results returned on cancellation
// (cut at a dequeue) or budget exhaustion (cut at the admission that would
// exceed it; DESIGN.md §6a).
package checker

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cells"
	"repro/internal/fingerprint"
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
	// Requires N ≤ 64. Zero keeps the crash-only space; negative is an
	// error.
	OmissionBudget int
	// MobileOmissions, when positive with OmissionBudget, caps the number
	// of simultaneously omission-faulty processors at k — the mobile
	// omission model: the faulty set moves as suppressed processors are
	// rehabilitated by successful deliveries. Zero leaves the faulty set
	// unbounded; negative is an error.
	MobileOmissions int
	// FailProcs restricts which processors may be failed (nil = all).
	FailProcs []sim.ProcID
	// Inputs restricts the initial input vectors (nil = all 2^N).
	Inputs [][]sim.Bit
	// MaxNodes caps the exploration (default sim.DefaultMaxNodes, the
	// budget shared with scheme.Options). Exceeding it is an error, never
	// a silent truncation; so is a negative value.
	MaxNodes int
	// Parallelism is pinned by bench/explore.go.
	//
	// Deprecated: ignored. The walk runs one shard per orbit of input
	// vectors on GOMAXPROCS goroutines, and its result does not depend on
	// how many.
	Parallelism int
	// TrackTraces records parent links so the first violation comes with
	// its counterexample (FirstInputs, FirstTrace). Costs memory
	// proportional to the node count. Under breadth-first exploration the
	// recorded trace is a shortest path to the violating configuration.
	TrackTraces bool
	// StopAtFirstViolation ends the exploration as soon as one violation
	// is found — useful when only the existence of a counterexample
	// matters.
	StopAtFirstViolation bool
	// Reduction selects state-space reductions (ample-set partial-order
	// reduction, symmetry canonicalization, dead-letter elision; see
	// Reduction). The default explores every interleaving. Reduced runs
	// keep the conformance verdict and terminal decision structure of the
	// full space while visiting fewer nodes; see DESIGN.md §8 for what is
	// and is not preserved.
	Reduction Reduction
	// Clock, when non-nil, samples monotonic elapsed time around the walk
	// (Exploration.ReplayWall). The checker itself never reads wall clocks
	// — determinism-critical code cannot branch on time — so a caller that
	// wants the measurement injects one. Pinned by bench/explore.go.
	Clock func() time.Duration
	// observe, when set, is handed every admitted node with the ids of its
	// local states, in admission order. ids is reused for the next node,
	// and nd (configuration included) once the walk has stepped it; its
	// ledger is never written. Only tests set it: the walk itself keeps
	// nothing per node.
	observe func(ids []int32, nd *node)
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

// Exploration is the result of exploring a protocol's configuration space:
// the census of its local states, into which each admitted configuration is
// folded, so it holds O(states) however many nodes the walk visited.
type Exploration struct {
	Proto     sim.Protocol
	Opts      Options
	NodeCount int // configurations admitted
	// Status records whether the exploration completed, was interrupted by
	// context cancellation, or exhausted its node budget. When Status is
	// partial, every aggregate below still describes the visited prefix —
	// partial results are returned, never discarded. The state census is
	// fed exclusively by accepted configurations, so States, Violations,
	// NodeCount, and FrontierSize of a budget-exhausted run repeat exactly;
	// a mid-run cancellation stops the walk at whichever dequeue first
	// observes it, and the result is the walk's prefix up to there.
	Status Status
	// FrontierSize is the number of accepted nodes the walk had
	// not yet consumed when a partial exploration stopped, counting the
	// node being walked or rejected (0 for complete explorations).
	FrontierSize int
	// States maps canonical state key → aggregate info.
	States map[string]*StateInfo
	// stateKeys resolves state ids: one id per distinct local state, in
	// order of first admission.
	stateKeys []string
	// occupancies lists each (state, position, decision) triple of the
	// census once, in order of first admission: what checkCorollary6 reads.
	occupancies []occupancy
	// Terminals counts quiescent nodes.
	Terminals int
	// Violations lists the conformance violations Check, CheckContext or
	// CheckAll found, capped at 100: the decision rule judged at every
	// decision transition, consistency at every node, and termination at
	// every terminal node.
	Violations []taxonomy.Violation
	// FirstInputs and FirstTrace are the first violation's counterexample
	// when Options.TrackTraces was set: the input vector of the stored root
	// the violating node descends from, and the schedule from that root to
	// it — a run chaos.Evaluate replays. FirstInputs is nil without one.
	FirstInputs []sim.Bit
	FirstTrace  sim.Schedule
	// Reduction holds the deterministic reduction counters (zero-valued
	// for unreduced runs apart from FullNodes/FullEvents).
	Reduction ReductionStats
	// ReplayWall is the wall time of the walk when Options.Clock was set;
	// ReplayBlocked is always 0. Timing only — never part of the
	// deterministic result. Both pinned by bench/explore.go.
	ReplayWall    time.Duration
	ReplayBlocked time.Duration
}

// FirstTraceLines renders the first violation's counterexample as cccheck
// -trace prints it: "initial: " and the root node's key, then one line per
// event. It is nil without a counterexample.
func (x *Exploration) FirstTraceLines() []string {
	if x.FirstInputs == nil {
		return nil
	}
	root := node{cfg: sim.NewConfigOmission(x.Proto, x.FirstInputs, x.Opts.omission()), ledger: make([]sim.Decision, len(x.FirstInputs))}
	lines := []string{"initial: " + root.key()}
	for _, ev := range x.FirstTrace {
		lines = append(lines, ev.String())
	}
	return lines
}

// parentLink is the first edge that reached a node: its parent's handle,
// the event, and the index of the input vector the node descends from. A
// root links to itself.
type parentLink struct {
	parent fingerprint.Digest
	event  sim.Event
	vec    int32
}

// judge is one problem riding the walk: what it is judged against, the
// violations that a solo Check of that problem would report, and the
// counterexample of the first, traced when it is found (links are
// first-wins, so none on its path changes after). The walk itself never
// depends on a judge (only StopAtFirstViolation cuts it, and that is
// accepted with one judge only), so k judges on one walk see exactly the
// edges and nodes, in exactly the order, of k solo walks.
type judge struct {
	problem    taxonomy.Problem
	violations []taxonomy.Violation
	inputs     []sim.Bit
	trace      sim.Schedule
}

// report adds what judge i found at the node with handle at, in shard sh,
// to its violations, up to the cap of 100, and traces its first violating
// node.
func (e *explorer) report(sh *shard, i int, found []taxonomy.Violation, at fingerprint.Digest) {
	if len(found) == 0 {
		return
	}
	j := &e.judges[i]
	if len(j.violations) == 0 && sh.parents != nil {
		j.inputs, j.trace = sh.traceTo(at)
	}
	j.violations = append(j.violations, found[:min(len(found), 100-len(j.violations))]...)
	e.violated = true
}

// Conforms reports whether a checked exploration found no violations.
func (x *Exploration) Conforms() bool { return len(x.Violations) == 0 }

// node is one exploration state: configuration plus the decision ledger
// (needed because total consistency constrains decisions that failure or
// amnesia later hide). The initial input vector rides along because the
// decision rule is a predicate over it.
type node struct {
	cfg    *sim.Config
	ledger []sim.Decision
	inputs []sim.Bit          // shared, read-only
	vecIdx int32              // which root input vector, in explorer.inputs
	fp     fingerprint.Digest // dedup handle: nodeFP(), canonical under a reduction
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

// Explore walks the reachable configuration space of the protocol over the
// requested input vectors, injecting up to MaxFailures fail-stop failures at
// every point, and aggregates the state census: states, concurrency sets,
// and the decisions each state occurs beside.
func Explore(proto sim.Protocol, opts Options) (*Exploration, error) {
	return ExploreContext(context.Background(), proto, opts)
}

// succ is one successor on its way to admission: the event that reached it,
// its dedup handle, and the node — nil for a successor whose handle was
// predicted and that is not built yet.
type succ struct {
	nd    *node
	event sim.Event
	fp    fingerprint.Digest // the dedup handle; nd.fp once built
	// vec is the successor's candidate handles (see canonicalizeSucc), in
	// scratch the explorer owns; predicted marks a handle and vector
	// predictHandle derived from the parent's.
	vec       []fingerprint.Digest
	predicted bool
	// permuted marks a successor whose dedup handle was canonicalized
	// away from its own frame by a non-identity automorphism; a rejected
	// permuted successor counts as a symmetry prune.
	permuted bool
	// elided marks a successor whose dedup handle was computed with dead
	// letters erased (sim.Config.WithoutDeadBuffers); a rejected elided
	// successor counts as an elision prune.
	elided bool
}

// explorer is the state of one exploration: the shards, one per admitted
// root, that walk the space; the fold's state — the state census aggregates,
// the judges' findings — fed in the joint walk's order; and the result
// under construction.
type explorer struct {
	proto       sim.Protocol
	n           int
	opts        Options
	maxFail     int
	failAllowed []bool
	x           *Exploration
	// Every distinct local state gets a dense id — its index in
	// Exploration.stateKeys and in census — the first time a configuration
	// holding it is admitted; stateID finds it by state digest. inputs
	// holds the root input vectors and vecs their keys, indexed by
	// node.vecIdx; ids is stateIDs' reused result. beside has bit (id·N + p)·2 + (d − Abort)
	// set once state id occurred at position p by a ledger first deciding d.
	stateID map[fingerprint.Digest]int32
	census  []stateCensus
	inputs  [][]sim.Bit
	vecs    []string
	ids     []int32
	beside  bitset
	// shards walk the admitted roots' spaces, one per orbit of input
	// vectors, in order of their first root; predictors are their
	// transition caches, in the same order (an explorer handed another's
	// predictors walks warm). runs is the joint walk's order of the level
	// being folded, and next that of the level being admitted, with queued
	// nodes in it.
	shards     []*shard
	predictors []*sim.Predictor
	runs, next []run
	queued     int
	// While the shards step a level, room is how many nodes it may admit
	// before the budget cuts the walk — MaxNodes less the nodes accepted
	// before it; admitted counts, for each run of the level, the nodes its
	// shard has admitted from the run's parents so far; and cut is the
	// least position, in the joint walk's order of the level, of a parent
	// at or before whose edges some shard has seen the fold must stop
	// (math.MaxInt64 while none has): no shard steps a parent after it, as
	// the fold never reads one.
	room     int
	admitted []runCount
	cut      atomic.Int64
	// fanout is the most events any parent folded so far took: room for
	// fewer than fanout nodes per parent of a level may mean the level is
	// cut.
	fanout int
	// judges are the problems the walk is checked against (none for a plain
	// Explore); violated records that some judge has a violation, which is
	// what StopAtFirstViolation waits for.
	judges   []judge
	violated bool
	// ample enables ample-set partial-order reduction in step; elide
	// enables dead-letter elision in the canonical dedup handle (the ample
	// modes switch both, ReduceElide elision alone); symPerms holds the
	// protocol's non-identity topology automorphisms when symmetry
	// canonicalization is on (empty = no usable symmetry). All resolved
	// once by initReduction.
	ample    bool
	elide    bool
	symPerms []sim.ProcPerm
}

// run admits the roots — one per input vector, no parent, no decision edge;
// under symmetry, symmetric vectors collapse to the first — each into the
// shard of its vector's orbit, and then walks breadth-first, one level per
// round, to completion, budget exhaustion, first violation, or
// interruption.
//
// Every node carries its root's input vector, which the handle salts in
// (relabelled with the processors under symmetry), so nodes reached from
// roots of two orbits never share a handle: each orbit's shard deduplicates
// alone (see shard). The joint FIFO walk admits the roots first and queues
// each node's successors after the nodes before it, so its depth-d queue
// segment lists the level's nodes by root, in root order, and within one
// shard in the shard's own order. A round steps every shard's level as one
// cell (internal/cells) — concurrently, or in turn on the calling goroutine
// at GOMAXPROCS=1 — and fold then replays the records in the joint order,
// which the previous fold wrote down as runs, so the result is the joint
// walk's at every width, including where it is cut; a shard that sees the
// fold will stop within its level ends the level there (shard.stepLevel),
// so a cut walk steps little past the cut. The context is polled
// once per parent, by the fold, so a cancellation cuts the result at a node
// boundary.
func (e *explorer) run(ctx context.Context) error {
	x := e.x
	if clock := e.opts.Clock; clock != nil {
		start := clock()
		defer func() { x.ReplayWall = clock() - start }()
	}
	orbits := make(map[string]*shard)
	for i, inputs := range e.inputs {
		key := e.orbitOf(inputs)
		sh := orbits[key]
		if sh == nil {
			sh = e.newShard()
			orbits[key] = sh
			e.shards = append(e.shards, sh)
		}
		root := succ{nd: &node{cfg: sim.NewConfigOmission(e.proto, inputs, e.opts.omission()), ledger: make([]sim.Decision, e.n), inputs: inputs, vecIdx: int32(i)}, vec: sh.svecs[0]}
		sh.canonicalizeSucc(nil, &root)
		sh.link(nil, root.nd, sim.Event{})
		if !sh.visited.Admit(root.fp, "") {
			var p prunes
			p.count(&root)
			p.addTo(&x.Reduction)
			continue
		}
		r := edgeRecord{child: root.nd, at: root.fp}
		sh.describe(&r)
		if stop, err := e.accept(sh, &r, e.queued+1); stop {
			return err
		}
		sh.enqueue(root.nd, root.vec)
		e.queue(sh)
	}
	costs := make([]int, len(e.shards))
	for e.queued > 0 {
		// A level that may be cut is stepped in shard order, as the shards
		// ahead in the joint order tell the others where it is cut; every
		// other level largest shard first.
		uncut := e.opts.maxNodes()-x.NodeCount >= e.queued*e.fanout
		for i, sh := range e.shards {
			sh.advance()
			costs[i] = 0
			if uncut {
				costs[i] = len(sh.level)
			}
		}
		at := 0
		for k, r := range e.next {
			r.sh.spans = append(r.sh.spans, span{n: r.n, at: at, run: k})
			at += r.n
		}
		e.room = e.opts.maxNodes() - x.NodeCount
		e.admitted = make([]runCount, len(e.next))
		e.cut.Store(math.MaxInt64)
		done := ctx.Done()
		cells.Run(costs, func(i int) { e.shards[i].stepLevel(done) })
		if stop, err := e.fold(ctx); stop {
			return err
		}
	}
	return nil
}

// orbitOf keys the orbit of an input vector under the walk's automorphisms:
// the least of its relabellings, the vector itself without symmetry.
func (e *explorer) orbitOf(inputs []sim.Bit) string {
	key := sim.InputsString(inputs)
	bits := make([]sim.Bit, len(inputs))
	for _, perm := range e.symPerms {
		for p, b := range inputs {
			bits[perm[p]] = b
		}
		key = min(key, sim.InputsString(bits))
	}
	return key
}

// run is a stretch of the joint walk's queue that one shard holds: its
// next n nodes.
type run struct {
	sh *shard
	n  int
}

// span is a run as the shard that holds it sees it: n nodes of its level,
// the first of them at position at in the joint walk's order of the level,
// and the run's index in that order.
type span struct{ n, at, run int }

// runCount is one run's count in explorer.admitted, on a cache line of its
// own, since each is written by its own shard while the others read it.
type runCount struct {
	n atomic.Int64
	_ [56]byte
}

// admittedBefore is how many nodes the shards have so far admitted from
// the parents of the level's runs before run k: a lower bound on the
// nodes the fold accepts before it reaches the run.
func (e *explorer) admittedBefore(k int) int {
	n := int64(0)
	for i := range e.admitted[:k] {
		n += e.admitted[i].n.Load()
	}
	return int(n)
}

// cutAt records that the fold is sure to stop at or before the edges of
// the level's parent at position at (see explorer.cut).
func (e *explorer) cutAt(at int) {
	for c := e.cut.Load(); int64(at) < c && !e.cut.CompareAndSwap(c, int64(at)); c = e.cut.Load() {
	}
}

// queue puts the node shard sh has just added to its next level at the end
// of the joint walk's order.
func (e *explorer) queue(sh *shard) {
	if k := len(e.next) - 1; k >= 0 && e.next[k].sh == sh {
		e.next[k].n++
	} else {
		e.next = append(e.next, run{sh, 1})
	}
	e.queued++
}

// fold replays the level the shards have just stepped in the joint walk's
// order, run by run, and does at each record what the joint walk did at
// that point: the context poll at each parent's dequeue, the parent's
// counters, then at each edge the prunes before it, the judges' reports of
// its violations, and for an admitted successor the budget, its number and
// census share, and its judgement as a configuration, cutting where the
// joint walk would stop. A shard's fault is raised where the joint walk
// would have met it: its error returned, its panic re-raised with the
// protocol's own value. FrontierSize counts what the joint walk's queue
// held at the cut: the level's nodes not yet dequeued, the successors
// admitted so far, and the node being stepped.
func (e *explorer) fold(ctx context.Context) (stop bool, err error) {
	x := e.x
	runs, left := e.next, e.queued
	e.next, e.queued = e.runs[:0], 0
	e.runs = runs
	for _, r := range runs {
		sh := r.sh
		for ; r.n > 0; r.n-- {
			k := sh.folded
			sh.folded++
			left--
			if cerr := ctx.Err(); cerr != nil {
				x.Status = StatusInterrupted
				x.FrontierSize = left + e.queued + 1
				return true, fmt.Errorf("checker: exploration of %s interrupted: %w", e.proto.Name(), cerr)
			}
			st := sh.steps[k]
			st.count(&x.Reduction)
			e.fanout = max(e.fanout, int(st.events))
			end := len(sh.edges)
			if k+1 < len(sh.steps) {
				end = int(sh.steps[k+1].edges)
			}
			for j := int(st.edges); j < end; j++ {
				rec := &sh.edges[j]
				rec.before.addTo(&x.Reduction)
				for i, found := range rec.violations {
					e.report(sh, i, found, rec.at)
				}
				if e.opts.StopAtFirstViolation && e.violated {
					return true, nil
				}
				if rec.child == nil {
					continue
				}
				if stop, err := e.accept(sh, rec, left+e.queued+1); stop {
					return true, err
				}
				e.queue(sh)
			}
			if k+1 == len(sh.steps) && sh.fault != nil {
				if sh.panicked {
					panic(sh.fault)
				}
				return true, sh.fault.(error)
			}
		}
	}
	return false, nil
}

// accept is the joint walk's share of admitting r.child, a node of shard
// sh: the budget, cut when it would be exceeded with frontier nodes left;
// then the node's number and census share, and its judgement as a
// configuration. stop is set when the exploration should end with the
// current partial result (first violation reached, or budget exhausted —
// the latter also carries a *BudgetError).
func (e *explorer) accept(sh *shard, r *edgeRecord, frontier int) (stop bool, err error) {
	x := e.x
	if x.NodeCount >= e.opts.maxNodes() {
		x.Status = StatusExhausted
		x.FrontierSize = frontier
		return true, &BudgetError{Protocol: e.proto.Name(), Nodes: e.opts.maxNodes()}
	}
	e.record(sh, r)
	if r.violates {
		for i := range e.judges {
			e.report(sh, i, nodeViolations(nil, e.judges[i].problem, x.NodeCount-1, r.child), r.at)
		}
	}
	return e.opts.StopAtFirstViolation && e.violated, nil
}

// record accepts one newly admitted configuration, described by r in shard
// sh: its number and its share of the state census. Nothing of it is kept
// per node.
func (e *explorer) record(sh *shard, r *edgeRecord) {
	x := e.x
	x.NodeCount++
	if r.quiescent {
		x.Terminals++
	}
	ids := e.stateIDs(sh, r)
	e.censusAdd(sh, r, ids)
	if e.opts.observe != nil {
		e.opts.observe(ids, r.child)
	}
}

// ExploreContext is Explore with graceful degradation: on context
// cancellation or budget exhaustion it returns the partial Exploration —
// node count and the census of the states visited, with Status and
// FrontierSize set — alongside a non-nil error (the context's error or a
// *BudgetError). Callers that can use partial results should inspect the
// returned Exploration even when err != nil. It judges nothing; CheckContext
// is the same walk judged against a problem.
func ExploreContext(ctx context.Context, proto sim.Protocol, opts Options) (*Exploration, error) {
	x, _, err := explore(ctx, proto, nil, opts)
	return x, err
}

// newExplorer validates the options and builds the empty explorer of one
// walk: nothing visited, no state numbered.
func newExplorer(proto sim.Protocol, problems []taxonomy.Problem, opts Options) (*explorer, error) {
	n := proto.N()
	maxFail := opts.MaxFailures
	if maxFail < 0 {
		maxFail = n - 1
	}
	// A negative budget is not a default: it would cut the walk before its
	// first node, or explore the unbounded model under a bounded one's name.
	for _, f := range []struct {
		name  string
		value int
	}{{"MaxNodes", opts.MaxNodes}, {"OmissionBudget", opts.OmissionBudget}, {"MobileOmissions", opts.MobileOmissions}} {
		if f.value < 0 {
			return nil, fmt.Errorf("checker: %s is negative (%d)", f.name, f.value)
		}
	}
	if opts.omission().Enabled() && n > 64 {
		return nil, fmt.Errorf("checker: omission budgets support at most 64 processors, got %d", n)
	}
	failAllowed := make([]bool, n)
	if opts.FailProcs == nil {
		for i := range failAllowed {
			failAllowed[i] = true
		}
	} else {
		for _, p := range opts.FailProcs {
			if p < 0 || int(p) >= n {
				return nil, fmt.Errorf("checker: FailProcs entry %d out of range [0,%d)", p, n)
			}
			failAllowed[p] = true
		}
	}

	x := &Exploration{Proto: proto, Opts: opts}
	e := &explorer{
		proto:       proto,
		n:           n,
		opts:        opts,
		maxFail:     maxFail,
		failAllowed: failAllowed,
		x:           x,
		stateID:     make(map[fingerprint.Digest]int32),
		ids:         make([]int32, n),
		judges:      make([]judge, len(problems)),
	}
	for i, p := range problems {
		e.judges[i].problem = p
	}
	e.initReduction()
	return e, nil
}

// explore is the one walk behind Explore and CheckAll: it explores the space
// once, judging it against every given problem on the way, and returns the
// shared Exploration (its Violations and counterexample unset) with each
// problem's findings beside it.
func explore(ctx context.Context, proto sim.Protocol, problems []taxonomy.Problem, opts Options) (*Exploration, []judge, error) {
	e, err := newExplorer(proto, problems, opts)
	if err != nil {
		return nil, nil, err
	}
	n, x := e.n, e.x
	e.inputs = opts.Inputs
	if e.inputs == nil {
		e.inputs = sim.AllInputs(n)
	}

	for _, inputs := range e.inputs {
		if len(inputs) != n {
			return nil, nil, fmt.Errorf("checker: input vector %v has length %d, want %d", inputs, len(inputs), n)
		}
		e.vecs = append(e.vecs, sim.InputsString(inputs))
	}

	err = e.run(ctx)
	if err != nil && !x.Status.Partial() {
		// A protocol error (sim.Apply failed) aborts with no result.
		return nil, nil, err
	}
	x.States = e.publishCensus()
	return x, e.judges, err
}

// BudgetError reports that exploration exceeded its node budget.
type BudgetError struct {
	Protocol string
	Nodes    int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("checker: exploration of %s exceeded %d nodes", e.Protocol, e.Nodes)
}

// updateLedger extends the parent's decision ledger old with the decision
// visible at p in cfg, the successor of a step of p. Only p's state differs
// from the parent's, whose visible decisions old already holds, and
// decisions are irrevocable (sim enforces it), so a visible decision can
// only confirm or extend the ledger.
//
// Ledgers are immutable once built, so a step that decides nothing — all
// but the decision edges — returns the parent's slice itself.
func updateLedger(old []sim.Decision, cfg *sim.Config, p sim.ProcID) []sim.Decision {
	d, ok := cfg.DecidedAt(p)
	if !ok || old[p] == d {
		return old
	}
	out := slices.Clone(old)
	out[p] = d
	return out
}
