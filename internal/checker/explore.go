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
// the state census, violation order, and FirstTrace are therefore a pure
// function of the root set and the options — including the partial results
// returned on cancellation (cut at a dequeue) or budget exhaustion (cut at
// the admission that would exceed it; DESIGN.md §6a).
package checker

import (
	"context"
	"fmt"
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
	// Problem, if non-nil, enables inline conformance checking: the
	// decision rule is checked at every decision transition, consistency
	// at every node, and termination at every terminal node. Violations
	// accumulate in Exploration.Violations (capped at 100). Check and
	// CheckAll set it on the Explorations they return.
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
	// Reduction selects state-space reductions (ample-set partial-order
	// reduction and/or symmetry canonicalization; see Reduction). The
	// default explores every interleaving. Reduced runs keep the
	// conformance verdict and terminal decision structure of the full
	// space while visiting far fewer nodes; see DESIGN.md §8 for what is
	// and is not preserved.
	Reduction Reduction
	// Clock, when non-nil, samples monotonic elapsed time around the walk
	// (Exploration.ReplayWall). The checker itself never reads wall clocks
	// — determinism-critical code cannot branch on time — so a caller that
	// wants the measurement injects one. Pinned by bench/explore.go.
	Clock func() time.Duration
	// observe, when set, is handed every admitted node with the ids of its
	// local states, in admission order. ids is reused for the next node.
	// Only tests set it: the walk itself keeps nothing per node.
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
	// Violations lists conformance violations found when Options.Problem
	// was set, capped at 100.
	Violations []taxonomy.Violation
	// FirstTrace is the event trace leading to the first violation, when
	// Options.TrackTraces was set.
	FirstTrace []string
	// Reduction holds the deterministic reduction counters (zero-valued
	// for unreduced runs apart from FullNodes/FullEvents).
	Reduction ReductionStats
	// ReplayWall is the wall time of the walk when Options.Clock was set;
	// ReplayBlocked is always 0. Timing only — never part of the
	// deterministic result. Both pinned by bench/explore.go.
	ReplayWall    time.Duration
	ReplayBlocked time.Duration

	// parents records trace links keyed by node fingerprint when
	// Options.TrackTraces is set; rootKeys resolves root fingerprints back
	// to the canonical keys printed in a trace's "initial:" line. A root
	// never takes a link, so every chain of links ends at one.
	parents  map[fingerprint.Digest]parentLink
	rootKeys map[fingerprint.Digest]string
}

type parentLink struct {
	parent fingerprint.Digest
	event  sim.Event
}

// traceTo reconstructs the event trace from an initial configuration to the
// node with the given fingerprint: event lines from the links and the
// root's canonical key from rootKeys.
func (x *Exploration) traceTo(fp fingerprint.Digest) []string {
	if x.parents == nil {
		return nil
	}
	var events []sim.Event
	cur := fp
	for {
		link, ok := x.parents[cur]
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

// judge is one problem riding the walk: what it is judged against, and the
// violations that a solo Check of that problem would report. The walk
// itself never depends on a judge (only StopAtFirstViolation cuts it, and
// that is accepted with one judge only), so k judges on one walk see
// exactly the edges and nodes, in exactly the order, of k solo walks.
// firstAt is the node of the first violation; CheckAll renders its trace
// once the walk has ended, from links and root keys that are first-wins and
// so read then what they read at the violation.
type judge struct {
	problem    taxonomy.Problem
	violations []taxonomy.Violation
	firstAt    fingerprint.Digest
}

// report adds what judge i found at the node with handle at to its
// violations, up to the cap of 100, and remembers its first violating node.
func (e *explorer) report(i int, found []taxonomy.Violation, at fingerprint.Digest) {
	if len(found) == 0 {
		return
	}
	j := &e.judges[i]
	if len(j.violations) == 0 {
		j.firstAt = at
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
	vecIdx int32              // which root input vector; explorer.vecs holds its key
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

// succ is one built successor on its way to admission: the node (its fp the
// dedup handle) and the event that reached it.
type succ struct {
	nd    *node
	event sim.Event
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
	// holding it is admitted; stateID finds it by state digest. vecs holds
	// the root input vectors' keys, indexed by node.vecIdx; ids is
	// stateIDsOf's reused result. beside has bit (id·N + p)·2 + (d − Abort)
	// set once state id occurred at position p by a ledger first deciding d.
	stateID map[fingerprint.Digest]int32
	census  []stateCensus
	vecs    []string
	ids     []int32
	beside  bitset
	// queue holds accepted nodes not yet consumed by the walk; head is
	// the next to walk. Consumed slots are nilled so a walked node's
	// memory can be reclaimed once its children are recorded.
	queue []*node
	head  int
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
	// enables dead-letter elision in the canonical dedup handle (both are
	// switched by the ample reduction modes); symPerms holds the
	// protocol's non-identity topology automorphisms when symmetry
	// canonicalization is on (empty = no usable symmetry). All resolved
	// once by initReduction.
	ample    bool
	elide    bool
	symPerms []sim.ProcPerm
	// permMemo memoizes relabelled component digests for symPerms, so
	// canonicalizeSucc permutes fingerprints, not configurations. Nil
	// without symmetry.
	permMemo *sim.PermuteMemo
}

// step folds one dequeued node into the exploration: each enabled event, in
// event order, either is vouched for by predictSeen or has its successor
// built and handed straight to admit. stop is admit's, or set beside a
// protocol error.
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
			built   [2]succ
			fresh   bool
		)
		events := e.appendAmpleEvents(scratch[:0], p, failedCount)
		for i, ev := range events {
			if built[i], err = e.build(nd, ev); err != nil {
				return true, err
			}
			fresh = fresh || !e.visited.Seen(built[i].nd.fp)
		}
		// The breadth-first form of the ample progress proviso
		// (Bošnački/Holzmann): the ample set stands only if some successor
		// is not yet visited; otherwise what was built is dropped — no link,
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
				if stop, err = e.admit(nd, &built[i], failureSeen); stop {
					return true, err
				}
			}
			return false, nil
		}
		x.Reduction.ProvisoFallbacks++
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
	// The fast path predicts each successor's fingerprint incrementally
	// from the parent's and skips building already-visited successors — the
	// bulk of all edges in a dense state space. It is sound only when
	// nothing but the prediction is needed per seen edge: no
	// canonicalization (the incremental fingerprint is the successor's own
	// frame, not its canonical handle). The one thing judged on a seen
	// edge, the decision rule, is a predicate over the prediction
	// (predictSeen).
	fast := !e.canonicalizing()
	for _, ev := range events {
		if fast && e.predictSeen(nd, ev, failureSeen) {
			continue
		}
		var s succ
		if s, err = e.build(nd, ev); err != nil {
			return true, err
		}
		if stop, err = e.admit(nd, &s, failureSeen); stop {
			return true, err
		}
	}
	return false, nil
}

// build materializes ev's successor of nd — the transition cache already
// holds the stepped state's digest, so no built edge rehashes a state — with
// its ledger and its dedup handle.
func (e *explorer) build(nd *node, ev sim.Event) (succ, error) {
	cfg, _, err := e.predictor.Materialize(e.proto, nd.cfg, ev)
	if err != nil {
		return succ{}, fmt.Errorf("checker: exploring %s: %w", e.proto.Name(), err)
	}
	s := succ{event: ev, nd: &node{cfg: cfg, ledger: updateLedger(nd.ledger, cfg), inputs: nd.inputs, vecIdx: nd.vecIdx}}
	e.setHandle(&s)
	return s, nil
}

// setHandle computes the dedup handle of a freshly built node: its
// fingerprint, canonical when a reduction rewrites handles.
func (e *explorer) setHandle(s *succ) {
	s.nd.fp = nodeFP(s.nd)
	if e.canonicalizing() {
		e.canonicalizeSucc(s)
	}
}

// predictSeen reports whether ev's successor is already in the visited set,
// judged by the fingerprint it would have — configuration fingerprint via
// the memoizing sim.Predictor, ledger delta from the predicted post-state's
// decision. false means the caller must build it: the successor is new, the
// event is irregular (Apply must produce the exact error), the ledger
// transition is one the delta rule cannot predict, or the predicted step is
// a decision some judge's rule forbids — so every violation is built, worded
// and ordered by the building path alone, and a prediction only ever
// vouches for an edge on which there is nothing to report or to link.
func (e *explorer) predictSeen(nd *node, ev sim.Event, failureSeen bool) bool {
	pred, ok := e.predictor.Predict(e.proto, nd.cfg, ev)
	if !ok {
		return false
	}
	fp := nd.fp.Sub(nd.cfg.Fingerprint()).Add(pred.CfgFP)
	if d := pred.Decision; pred.Decided {
		if old := nd.ledger[ev.Proc]; old != d {
			if old != sim.NoDecision {
				// A decision change by way of an amnesic detour; the
				// ledger delta is not a single added term, so fall back
				// to the building path.
				return false
			}
			fp = fp.Add(ledgerTerm(ev.Proc, d))
			for i := range e.judges {
				if !e.judges[i].problem.Rule.Permits(d, nd.inputs, failureSeen) {
					return false
				}
			}
		}
	}
	return e.visited.Seen(fp)
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
func (e *explorer) run(ctx context.Context, inputVecs [][]sim.Bit) error {
	x := e.x
	if clock := e.opts.Clock; clock != nil {
		start := clock()
		defer func() { x.ReplayWall = clock() - start }()
	}
	for i, inputs := range inputVecs {
		root := succ{nd: &node{cfg: sim.NewConfigOmission(e.proto, inputs, e.opts.omission()), ledger: make([]sim.Decision, e.n), inputs: inputs, vecIdx: int32(i)}}
		e.setHandle(&root)
		if x.rootKeys != nil {
			// First-wins: under symmetry two roots can share a canonical
			// fingerprint, and the admitted one is the first.
			if _, ok := x.rootKeys[root.nd.fp]; !ok {
				x.rootKeys[root.nd.fp] = root.nd.key()
			}
		}
		if stop, err := e.admit(nil, &root, false); stop {
			return err
		}
	}
	for e.head < len(e.queue) {
		nd := e.queue[e.head]
		e.queue[e.head] = nil
		e.head++
		if cerr := ctx.Err(); cerr != nil {
			x.Status = StatusInterrupted
			x.FrontierSize = e.frontierLeft()
			return fmt.Errorf("checker: exploration of %s interrupted: %w", e.proto.Name(), cerr)
		}
		if stop, err := e.step(nd); stop {
			return err
		}
	}
	return nil
}

// admit offers one built node — a root when parent is nil — to the
// exploration: the trace link and the judges' decision rules on the edge
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
	if parent != nil && x.parents != nil {
		if _, linked := x.parents[nd.fp]; !linked {
			// A root reached again by a back-edge stays a root: a
			// link would close a cycle that traceTo never leaves.
			if _, root := x.rootKeys[nd.fp]; !root {
				x.parents[nd.fp] = parentLink{parent: parent.fp, event: s.event}
			}
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
		switch {
		case s.permuted:
			x.Reduction.SymmetryPrunes++
		case s.elided:
			x.Reduction.ElisionPrunes++
		}
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
	return false, nil
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
// node count, the census of the states visited, and every violation found
// so far, with Status and FrontierSize set — alongside a non-nil error (the
// context's error or a *BudgetError). Callers that can use partial results
// should inspect the returned Exploration even when err != nil.
func ExploreContext(ctx context.Context, proto sim.Protocol, opts Options) (*Exploration, error) {
	if opts.Problem != nil {
		return CheckContext(ctx, proto, *opts.Problem, opts)
	}
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
	if opts.TrackTraces {
		x.parents = make(map[fingerprint.Digest]parentLink)
		x.rootKeys = make(map[fingerprint.Digest]string)
	}
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
	for i, p := range problems {
		e.judges[i].problem = p
	}
	e.initReduction()
	return e, nil
}

// explore is the one walk behind Explore and CheckAll: it explores the space
// once, judging it against every given problem on the way, and returns the
// shared Exploration (its Violations and FirstTrace unset) with each
// problem's findings beside it.
func explore(ctx context.Context, proto sim.Protocol, problems []taxonomy.Problem, opts Options) (*Exploration, []judge, error) {
	e, err := newExplorer(proto, problems, opts)
	if err != nil {
		return nil, nil, err
	}
	n, x := e.n, e.x
	inputVecs := opts.Inputs
	if inputVecs == nil {
		inputVecs = sim.AllInputs(n)
	}

	for _, inputs := range inputVecs {
		if len(inputs) != n {
			return nil, nil, fmt.Errorf("checker: input vector %v has length %d, want %d", inputs, len(inputs), n)
		}
		e.vecs = append(e.vecs, sim.InputsString(inputs))
	}

	err = e.run(ctx, inputVecs)
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

// updateLedger extends the decision ledger with any decisions visible in the
// configuration. Decisions are irrevocable (sim enforces it), so a visible
// decision can only confirm or extend the ledger.
//
// Ledgers are immutable once built, so a step that decides nothing — all
// but the decision edges — returns the parent's slice itself.
func updateLedger(old []sim.Decision, cfg *sim.Config) []sim.Decision {
	out, shared := old, true
	for p, s := range cfg.States {
		d, ok := s.Decided()
		if !ok || out[p] == d {
			continue
		}
		if shared {
			out, shared = append([]sim.Decision(nil), old...), false
		}
		out[p] = d
	}
	return out
}
