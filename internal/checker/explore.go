// Package checker implements the verification machinery behind the paper's
// proofs: an exhaustive model checker over the reachable configuration space
// (with fail-stop failure injection), computation of concurrency sets C(s),
// the safe-state analysis of Theorem 2, bias/committability, and a
// scenario-replay engine for the indistinguishability arguments of Theorems
// 8 and 13.
//
// The explorer is one breadth-first FIFO walk on the calling goroutine:
// nodes are stepped in the order they were admitted to the visited set, and
// each of a node's successors is offered to the visited set, in event order,
// as soon as it is built — so admission order is result order, and state
// ids, keys and census entries exist only for admitted nodes. Node counts,
// the state census, violation order, and counterexample are therefore a pure
// function of the root set and the options — including the partial results
// returned on cancellation (cut at a dequeue) or budget exhaustion (cut at
// the admission that would exceed it; DESIGN.md §6a).
package checker

import (
	"context"
	"fmt"
	"slices"
	"strings"
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
	// Deprecated: ignored; the explorer is sequential.
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

// traceTo is the counterexample ending at the node with handle fp: the
// links back to the root they end at, that root's input vector, and the
// events from it.
func (e *explorer) traceTo(fp fingerprint.Digest) ([]sim.Bit, sim.Schedule) {
	var sched sim.Schedule
	link := e.parents[fp]
	for link.parent != fp {
		sched = append(sched, link.event)
		fp = link.parent
		link = e.parents[fp]
	}
	slices.Reverse(sched)
	return e.inputs[link.vec], sched
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

// report adds what judge i found at the node with handle at to its
// violations, up to the cap of 100, and traces its first violating node.
func (e *explorer) report(i int, found []taxonomy.Violation, at fingerprint.Digest) {
	if len(found) == 0 {
		return
	}
	j := &e.judges[i]
	if len(j.violations) == 0 && e.parents != nil {
		j.inputs, j.trace = e.traceTo(at)
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

// explorer is the state of one exploration: the visited set, whose
// admissions define the result; the state census aggregates; the walk's
// FIFO queue; and the result under construction.
type explorer struct {
	proto       sim.Protocol
	n           int
	opts        Options
	maxFail     int
	failAllowed []bool
	x           *Exploration
	visited     *frontier.SeqVisited
	// Every distinct local state gets a dense id — its index in
	// Exploration.stateKeys and in census — the first time a configuration
	// holding it is admitted; stateID finds it by state digest. inputs
	// holds the root input vectors and vecs their keys, indexed by
	// node.vecIdx; ids is stateIDsOf's reused result. beside has bit (id·N + p)·2 + (d − Abort)
	// set once state id occurred at position p by a ledger first deciding d.
	stateID map[fingerprint.Digest]int32
	census  []stateCensus
	inputs  [][]sim.Bit
	vecs    []string
	ids     []int32
	beside  bitset
	// parents holds each linked node's first link, keyed by handle, when
	// Options.TrackTraces is set.
	parents map[fingerprint.Digest]parentLink
	// queue holds accepted nodes not yet consumed by the walk; head is
	// the next to walk. Consumed slots are nilled, and the consumed prefix
	// is dropped once it is the larger half (popNode), so the queue holds
	// O(frontier) slots, not one per admitted node.
	queue []*node
	head  int
	// free holds nodes the walk is done with — stepped, or built and
	// rejected — whose node and configuration the next built successor is
	// written into. Nothing reads a node after that: queue slots are
	// nilled, parent links and canonical vectors are digests, violations
	// are strings. Ledgers are shared between nodes, so they are dropped,
	// never reused.
	free []*node
	// judges are the problems the walk is checked against (none for a plain
	// Explore); violated records that some judge has a violation, which is
	// what StopAtFirstViolation waits for.
	judges   []judge
	violated bool
	// events is step's scratch, reused across nodes so enumerating the
	// enabled events allocates nothing in steady state.
	events []sim.Event
	// predictor memoizes transition outcomes by input digests, so the fast
	// path's successor fingerprints cost map probes instead of protocol
	// callbacks plus state hashing.
	predictor *sim.Predictor
	// ample enables ample-set partial-order reduction in step; elide
	// enables dead-letter elision in the canonical dedup handle (the ample
	// modes switch both, ReduceElide elision alone); symPerms holds the
	// protocol's non-identity topology automorphisms when symmetry
	// canonicalization is on (empty = no usable symmetry). All resolved
	// once by initReduction.
	ample    bool
	elide    bool
	symPerms []sim.ProcPerm
	// permMemo memoizes each component's relabelled terms under symPerms,
	// so handles are computed from fingerprints, not configurations; its
	// width is 1 when symPerms is empty.
	permMemo *sim.PermuteMemo
	// A walk with symmetry keeps every queued node's vector (its candidate
	// handles, permMemo.Width() digests) in qvecs, in queue order from
	// qvecHead, so node carries none of it; at width 1 the vector is the
	// node's handle and qvecs stays empty. pvec holds the vector of the node
	// being stepped and svecs the vectors of the at most two successors held
	// at once.
	qvecs    []fingerprint.Digest
	qvecHead int
	pvec     []fingerprint.Digest
	svecs    [2][]fingerprint.Digest
}

// step folds one dequeued node into the exploration: each enabled event, in
// event order, gets its successor's handle (handle), and the successor is
// either rejected as already visited without being built or built once and
// handed to admit (offer). stop is admit's, or set beside a protocol error.
func (e *explorer) step(nd *node) (stop bool, err error) {
	x := e.x
	failedCount := 0
	for p := 0; p < e.n; p++ {
		if nd.cfg.Faulty(sim.ProcID(p)) {
			failedCount++
		}
	}
	// The decision rule's "a failure has occurred" is a fact of the
	// pre-configuration — a crash, or a delivery omission-suppressed — (the
	// event itself cannot simultaneously fail a processor and decide
	// another), so one reading serves every edge of the node.
	failureSeen := failedCount > 0 || nd.cfg.OmissionsUsed() > 0

	p, reduced := sim.ProcID(0), false
	if e.ample {
		p, reduced = ampleProc(nd.cfg)
	}
	if reduced {
		// The ample set's successors are the only ones ever held before they
		// are admitted: the proviso must see both handles first.
		var (
			scratch [2]sim.Event
			held    [2]succ
			fresh   bool
		)
		events := e.appendAmpleEvents(scratch[:0], p, failedCount)
		for i, ev := range events {
			held[i] = succ{event: ev, vec: e.svecs[i]}
			if err = e.handle(nd, &held[i], failureSeen); err != nil {
				return true, err
			}
			fresh = fresh || !e.visited.Seen(held[i].fp)
		}
		// The breadth-first form of the ample progress proviso
		// (Bošnački/Holzmann): the ample set stands only if some successor
		// is not yet visited; otherwise what was held is dropped — no link,
		// violation, prune or counter — and the node takes its full event
		// set. Every node stepped reduced thus discovers a new state, so the
		// exploration can never spin over a closed reduced component while
		// indefinitely deferring the independent events.
		//
		// The reachability properties the checker reports do not lean on
		// this condition at all — every full-graph terminal configuration
		// and violating edge/node is reachable inside the reduced graph by
		// the run-commutation argument of DESIGN.md §8, which only needs
		// the ample set to contain all of the ample processor's enabled
		// events. The proviso exists so a reduced exploration also keeps
		// the structural guarantee the standard theory wants from BFS ample
		// sets; full LTL-style liveness over cycles (which the six-problem
		// lattice never asks for) would need the stricter any-revisit
		// fallback, documented and rejected in DESIGN.md §8.
		if fresh {
			x.Reduction.AmpleNodes++
			x.Reduction.AmpleEvents += int64(len(events))
			for i := range events {
				if stop, err = e.offer(nd, &held[i], failureSeen); stop {
					return true, err
				}
			}
			return false, nil
		}
		x.Reduction.ProvisoFallbacks++
		for i := range events {
			if held[i].nd != nil {
				e.release(held[i].nd)
			}
		}
	}

	events := sim.AppendEnabled(e.events[:0], nd.cfg)
	if failedCount < e.maxFail {
		for p := 0; p < e.n; p++ {
			if e.failAllowed[p] && !nd.cfg.Faulty(sim.ProcID(p)) {
				events = append(events, sim.Event{Proc: sim.ProcID(p), Type: sim.Fail})
			}
		}
	}
	e.events = events
	x.Reduction.FullNodes++
	x.Reduction.FullEvents += int64(len(events))
	// Each successor's handle is predicted incrementally from the parent's
	// vector (predictHandle) and an already-visited successor is never
	// built — the bulk of all edges in a dense state space. The one thing
	// judged on a seen edge, the decision rule, is a predicate over the
	// prediction.
	for _, ev := range events {
		s := succ{event: ev, vec: e.svecs[0]}
		if err = e.handle(nd, &s, failureSeen); err != nil {
			return true, err
		}
		if stop, err = e.offer(nd, &s, failureSeen); stop {
			return true, err
		}
	}
	return false, nil
}

// handle gives successor s of nd its handle and vector: predicted from the
// parent's vector where predictHandle can vouch for the edge, built
// otherwise.
func (e *explorer) handle(nd *node, s *succ, failureSeen bool) error {
	if e.predictHandle(nd, e.pvec, s, failureSeen) {
		return nil
	}
	return e.build(nd, s)
}

// offer hands a successor to admit, building it first if only its handle
// was predicted — unless that handle is already visited: then it is
// rejected as admit would reject it (a seen predicted edge has nothing to
// link or report), and never built.
func (e *explorer) offer(parent *node, s *succ, failureSeen bool) (stop bool, err error) {
	if s.nd == nil {
		if e.visited.Seen(s.fp) {
			e.countPrune(s)
			return false, nil
		}
		if s.nd, err = e.materialize(parent, s.event); err != nil {
			return true, err
		}
		s.nd.fp = s.fp
		if canonicalizeHook != nil {
			canonicalizeHook(e, parent, *s)
		}
	}
	return e.admit(parent, s, failureSeen)
}

// build materializes s.event's successor of nd with its dedup handle.
func (e *explorer) build(nd *node, s *succ) (err error) {
	if s.nd, err = e.materialize(nd, s.event); err != nil {
		return err
	}
	e.canonicalizeSucc(nd, s)
	return nil
}

// materialize builds ev's successor of nd with its ledger — the transition
// cache already holds the stepped state's digest, so no built edge rehashes
// a state — and no handle, into a node from the free list when it has one.
func (e *explorer) materialize(nd *node, ev sim.Event) (*node, error) {
	var nxt *node
	if k := len(e.free) - 1; k >= 0 {
		nxt, e.free = e.free[k], e.free[:k]
	} else {
		nxt = &node{}
	}
	cfg, err := e.predictor.Materialize(e.proto, nd.cfg, ev, nxt.cfg, nil)
	if err != nil {
		e.release(nxt)
		return nil, fmt.Errorf("checker: exploring %s: %w", e.proto.Name(), err)
	}
	*nxt = node{cfg: cfg, ledger: updateLedger(nd.ledger, cfg, ev.Proc), inputs: nd.inputs, vecIdx: nd.vecIdx}
	return nxt, nil
}

// release puts a node the walk is done with on the free list, dropping what
// it shares with other nodes — its ledger, and the states and buffers its
// configuration points to — so that a parked node keeps nothing alive.
func (e *explorer) release(nd *node) {
	if nd.cfg != nil {
		clear(nd.cfg.States)
		clear(nd.cfg.Buffers)
	}
	nd.ledger = nil
	e.free = append(e.free, nd)
}

// newDecision is the decision a predicted step of p — whose post-state
// shows decision d when decided — adds to nd's ledger, NoDecision when it
// adds none. ok=false sends the edge to the building path: a decision
// change by way of an amnesic detour (the ledger delta is not a single
// added term), or a decision some judge's rule forbids.
func (e *explorer) newDecision(nd *node, p sim.ProcID, d sim.Decision, decided, failureSeen bool) (sim.Decision, bool) {
	if old := nd.ledger[p]; !decided || old == d {
		return sim.NoDecision, true
	} else if old != sim.NoDecision {
		return sim.NoDecision, false
	}
	for i := range e.judges {
		if !e.judges[i].problem.Rule.Permits(d, nd.inputs, failureSeen) {
			return sim.NoDecision, false
		}
	}
	return d, true
}

// frontierLeft is the partial-stop frontier measure: accepted nodes the
// walk has not consumed, counting the node being stepped (or the one whose
// acceptance was rejected).
func (e *explorer) frontierLeft() int { return len(e.queue) - e.head + 1 }

// run admits the roots — one per input vector, no parent, no decision edge;
// under symmetry, symmetric vectors collapse to the first — and then walks
// breadth-first to completion, budget exhaustion, first violation, or
// interruption. The context is checked at every dequeue, so a cancellation
// cuts the result at a node boundary.
func (e *explorer) run(ctx context.Context) error {
	x := e.x
	if clock := e.opts.Clock; clock != nil {
		start := clock()
		defer func() { x.ReplayWall = clock() - start }()
	}
	for i, inputs := range e.inputs {
		root := succ{nd: &node{cfg: sim.NewConfigOmission(e.proto, inputs, e.opts.omission()), ledger: make([]sim.Decision, e.n), inputs: inputs, vecIdx: int32(i)}, vec: e.svecs[0]}
		e.canonicalizeSucc(nil, &root)
		if stop, err := e.admit(nil, &root, false); stop {
			return err
		}
	}
	for e.head < len(e.queue) {
		nd := e.popNode()
		e.popVec(nd)
		if cerr := ctx.Err(); cerr != nil {
			x.Status = StatusInterrupted
			x.FrontierSize = e.frontierLeft()
			return fmt.Errorf("checker: exploration of %s interrupted: %w", e.proto.Name(), cerr)
		}
		if stop, err := e.step(nd); stop {
			return err
		}
		e.release(nd)
	}
	return nil
}

// popNode dequeues the next node to walk, compacting the queue once its
// consumed prefix is the larger half, as popVec compacts qvecs.
func (e *explorer) popNode() *node {
	nd := e.queue[e.head]
	e.queue[e.head] = nil
	e.head++
	if e.head >= 1<<16 && 2*e.head >= len(e.queue) {
		e.queue = e.queue[:copy(e.queue, e.queue[e.head:])]
		e.head = 0
	}
	return nd
}

// admit offers one built node — a root when parent is nil — to the
// exploration: the trace link (first-wins, so under symmetry the first of
// roots sharing a handle keeps it, and a back-edge into a root finds the
// root linked to itself) and the judges' decision rules on the edge
// come first, since an edge into a visited node is still an edge
// (failureSeen is the parent's reading); then the visited set decides, and
// only a node it admits gets a number, state ids, census entries, its
// judgement as a configuration and a place in the queue. A rejected node
// whose handle a canonicalization rewrote counts as that canonicalization's
// prune: symmetry when a non-identity automorphism won (it strictly improved
// on the already-erased identity handle), dead-letter elision otherwise.
// stop is set when the exploration should end with the current partial
// result (first violation reached, or budget exhausted — the latter also
// carries a *BudgetError).
func (e *explorer) admit(parent *node, s *succ, failureSeen bool) (stop bool, err error) {
	x, nd := e.x, s.nd
	if e.parents != nil {
		if _, linked := e.parents[nd.fp]; !linked {
			link := parentLink{parent: nd.fp, vec: nd.vecIdx}
			if parent != nil {
				link.parent, link.event = parent.fp, s.event
			}
			e.parents[nd.fp] = link
		}
	}
	if parent != nil {
		for i := range e.judges {
			e.report(i, edgeViolations(nil, e.judges[i].problem, parent, nd, failureSeen), nd.fp)
		}
	}
	if e.opts.StopAtFirstViolation && e.violated {
		return true, nil
	}
	if !e.visited.Admit(nd.fp, "") {
		e.countPrune(s)
		e.release(nd)
		return false, nil
	}
	if x.NodeCount >= e.opts.maxNodes() {
		x.Status = StatusExhausted
		x.FrontierSize = e.frontierLeft()
		return true, &BudgetError{Protocol: e.proto.Name(), Nodes: e.opts.maxNodes()}
	}
	e.record(nd)
	for i := range e.judges {
		e.report(i, nodeViolations(nil, e.judges[i].problem, x.NodeCount-1, nd), nd.fp)
	}
	if e.opts.StopAtFirstViolation && e.violated {
		return true, nil
	}
	e.queue = append(e.queue, nd)
	if len(s.vec) > 1 {
		e.qvecs = append(e.qvecs, s.vec...)
	}
	return false, nil
}

// countPrune counts a rejected successor whose handle a canonicalization
// rewrote as that canonicalization's prune.
func (e *explorer) countPrune(s *succ) {
	switch {
	case s.permuted:
		e.x.Reduction.SymmetryPrunes++
	case s.elided:
		e.x.Reduction.ElisionPrunes++
	}
}

// popVec moves the vector of nd, the node just dequeued, into pvec: its
// handle at width 1, else from qvecs, compacting qvecs once its consumed
// prefix is the larger half.
func (e *explorer) popVec(nd *node) {
	w := len(e.pvec)
	if w == 1 {
		e.pvec[0] = nd.fp
		return
	}
	copy(e.pvec, e.qvecs[e.qvecHead:e.qvecHead+w])
	e.qvecHead += w
	if e.qvecHead >= 1<<16 && 2*e.qvecHead >= len(e.qvecs) {
		e.qvecs = e.qvecs[:copy(e.qvecs, e.qvecs[e.qvecHead:])]
		e.qvecHead = 0
	}
}

// record accepts one newly admitted configuration: its number and its share
// of the state census. Nothing of it is kept per node.
func (e *explorer) record(nd *node) {
	x := e.x
	x.NodeCount++
	if nd.cfg.Quiescent() {
		x.Terminals++
	}
	ids := e.stateIDsOf(nd)
	e.censusAdd(nd, ids)
	if e.opts.observe != nil {
		e.opts.observe(ids, nd)
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
		visited:     frontier.NewSeqVisited(frontier.DedupFingerprint),
		stateID:     make(map[fingerprint.Digest]int32),
		ids:         make([]int32, n),
		predictor:   sim.NewPredictor(),
		judges:      make([]judge, len(problems)),
	}
	if opts.TrackTraces {
		e.parents = make(map[fingerprint.Digest]parentLink)
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
