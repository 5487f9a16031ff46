// Package checker implements the verification machinery behind the paper's
// proofs: an exhaustive model checker over the reachable configuration space
// (with fail-stop failure injection), computation of concurrency sets C(s),
// the safe-state analysis of Theorem 2, bias/committability, and a
// scenario-replay engine for the indistinguishability arguments of Theorems
// 8 and 13.
//
// The explorer is one breadth-first FIFO walk on the calling goroutine:
// nodes are expanded in the order they were admitted to the visited set,
// and each node's successors are admitted in event order, so admission
// order is result order. Node counts, the state census, violation order,
// and FirstTrace are therefore a pure function of the root set and the
// options — including the partial results returned on cancellation or
// budget exhaustion, which cut the walk at a dequeue (DESIGN.md §6a).
package checker

import (
	"context"
	"errors"
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
	// Violations, NodeCount, and FrontierSize of a budget-exhausted run
	// repeat exactly; a mid-run cancellation stops the walk at whichever
	// dequeue first observes it, and the result is the walk's prefix up to
	// there.
	Status Status
	// FrontierSize is the number of accepted nodes the walk had
	// not yet consumed when a partial exploration stopped, counting the
	// node being walked or rejected (0 for complete explorations).
	FrontierSize int
	// States maps canonical state key → aggregate info.
	States map[string]*StateInfo
	// stateKeys resolves the ids in ConfigRecord.StateIdx: one id per
	// distinct local state, in order of first admission.
	stateKeys []string
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
// violations and first trace that a solo Check of that problem would report.
// The walk itself never depends on a judge (only StopAtFirstViolation cuts
// it, and that is accepted with one judge only), so k judges on one walk
// see exactly the edges and nodes, in exactly the order, of k solo walks.
type judge struct {
	problem    taxonomy.Problem
	violations []taxonomy.Violation
	firstTrace []string
}

// verdict is one violation attributed to the judge that found it.
type verdict struct {
	judge int
	taxonomy.Violation
}

// addViolation appends a violation to its judge, respecting the cap, and
// records the trace to that judge's first violating node when trace tracking
// is on.
func (e *explorer) addViolation(v verdict, s *succ) {
	j := &e.judges[v.judge]
	if len(j.violations) == 0 {
		j.firstTrace = e.x.traceTo(s.fp)
	}
	if len(j.violations) < 100 {
		j.violations = append(j.violations, v.Violation)
	}
	e.violated = true
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
// fingerprint, the event, and — when the successor was not already visited
// when the expansion ran — the precomputed node, the intern ids of its
// per-processor states, and its violations. Expansion computes everything
// here; the walk only admits and records.
type succ struct {
	fp       fingerprint.Digest
	event    sim.Event
	edgeViol []verdict
	// nd is nil when the successor was already visited when the expansion
	// ran — on the fast path it was then never materialized at all: its
	// fingerprint was derived from the parent's and found already visited.
	nd       *node
	stateIDs []int32 // intern ids; record rewrites them into public ids
	terminal bool
	nodeViol []verdict
	// permuted marks a successor whose dedup handle was canonicalized
	// away from its own frame by a non-identity automorphism; the walk
	// counts rejected permuted successors as symmetry prunes.
	permuted bool
	// elided marks a successor whose dedup handle was computed with dead
	// letters erased (sim.Config.WithoutDeadBuffers); the walk counts
	// rejected elided successors as elision prunes.
	elided bool
}

// expansion is one frontier node's worth of generated edges. reduced marks
// an ample-set expansion (a strict subset of the enabled events); the
// walk substitutes the full expansion when the cycle proviso demands it.
type expansion struct {
	succs   []succ
	err     error
	reduced bool
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
	// Every distinct local state gets a dense intern id the first time the
	// walk materializes it, by state digest, and a public id, its index in
	// Exploration.stateKeys and in census, the first time a configuration
	// holding it is admitted. public maps intern id → public id, −1 until
	// then: a successor that is materialized but never admitted (a sibling
	// with the same canonical handle won) hands out intern ids and must not
	// shift the order of the public ones. vecs holds the root input vectors'
	// keys (inputsKey), indexed by node.vecIdx; slab is the chunk stateIDsOf
	// carves from.
	internFP map[fingerprint.Digest]int32
	public   []int32
	census   []stateCensus
	vecs     []string
	slab     []int32
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
	// events and succs are expand's scratch, reused across expansions
	// so enumerating enabled events and collecting their edges allocate
	// nothing in steady state: walk consumes an expansion before the next
	// one is generated.
	events []sim.Event
	succs  []succ
	// predictor memoizes transition outcomes by input digests, so the fast
	// path's successor fingerprints cost map probes instead of protocol
	// callbacks plus state hashing.
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
	// canonicalizeSucc permutes fingerprints, not configurations. Nil
	// without symmetry.
	permMemo *sim.PermuteMemo
}

// expand generates the successors of one frontier node: the ample subset
// when tryAmple is set and an ample processor exists, all of them otherwise
// (the walk asks again without tryAmple when the cycle proviso rejects a
// reduced expansion).
func (e *explorer) expand(nd *node, tryAmple bool) expansion {
	var out expansion
	failedCount := 0
	for p := 0; p < e.n; p++ {
		if nd.cfg.Faulty(sim.ProcID(p)) {
			failedCount++
		}
	}
	events := e.events[:0]
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
	e.events = events
	out.succs = e.succs[:0]
	// The decision rule's "a failure has occurred" is a fact of the
	// pre-configuration — a crash, or a delivery omission-suppressed — (the
	// event itself cannot simultaneously fail a processor and decide
	// another), so one reading serves every edge of the expansion.
	failureSeen := failedCount > 0 || nd.cfg.OmissionsUsed() > 0
	// The fast path predicts each successor's fingerprint incrementally
	// from the parent's and skips materialization for already-visited
	// successors — the bulk of all edges in a dense state space. It is
	// sound only when nothing but the prediction is needed per seen edge:
	// no canonicalization (the incremental fingerprint is the successor's
	// own frame, not its canonical handle). The one thing judged on a seen
	// edge, the decision rule, is a predicate over the prediction
	// (predictSeen).
	fast := !e.canonicalizing()
	for _, ev := range events {
		if fast {
			if fp, ok := e.predictSeen(nd, ev, failureSeen); ok {
				out.succs = append(out.succs, succ{fp: fp, event: ev})
				continue
			}
		}
		// The transition cache already holds the stepped state's digest, so
		// no materialized edge rehashes a state.
		cfg, _, err := e.predictor.Materialize(e.proto, nd.cfg, ev)
		if err != nil {
			out.err = fmt.Errorf("checker: exploring %s: %w", e.proto.Name(), err)
			return out
		}
		nxt := &node{cfg: cfg, ledger: updateLedger(nd.ledger, cfg), inputs: nd.inputs, vecIdx: nd.vecIdx}
		s := succ{event: ev}
		e.setHandle(nxt, &s)
		s.edgeViol = e.edgeViolations(nd, nxt, failureSeen)
		if !e.visited.Seen(s.fp) {
			s.nd = nxt
			s.terminal = cfg.Quiescent()
			s.stateIDs = e.stateIDsOf(nxt)
			s.nodeViol = e.nodeViolations(nxt)
		}
		out.succs = append(out.succs, s)
	}
	e.succs = out.succs
	return out
}

// setHandle computes the dedup handle of a freshly built node — its
// fingerprint, canonical when a reduction rewrites handles — and stores it
// on the node and its succ.
func (e *explorer) setHandle(nd *node, s *succ) {
	nd.fp = nodeFP(nd)
	s.fp = nd.fp
	if e.canonicalizing() {
		e.canonicalizeSucc(nd, s)
	}
}

// predictSeen derives the fingerprint that ev's successor node would have
// — configuration fingerprint via the memoizing sim.Predictor, ledger
// delta from the predicted post-state's decision — and reports whether
// that successor is already in the visited set. ok=false means the caller
// must materialize: the successor is new, the event is irregular (Apply
// must produce the exact error), the ledger transition is one the delta
// rule cannot predict, or the predicted step is a decision some judge's
// rule forbids — so every violation is built, worded and ordered by the
// materializing path alone, and a prediction only ever vouches for an edge
// on which there is nothing to report.
func (e *explorer) predictSeen(nd *node, ev sim.Event, failureSeen bool) (fingerprint.Digest, bool) {
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
			for i := range e.judges {
				if !e.judges[i].problem.Rule.Permits(d, nd.inputs, failureSeen) {
					return fingerprint.Digest{}, false
				}
			}
		}
	}
	if !e.visited.Seen(fp) {
		return fingerprint.Digest{}, false
	}
	return fp, true
}

// frontierLeft is the partial-stop frontier measure: accepted nodes the
// walk has not consumed, counting the node being walked (or the one whose
// acceptance was rejected).
func (e *explorer) frontierLeft() int { return len(e.queue) - e.head + 1 }

// run walks breadth-first from the synthetic root expansion to completion,
// budget exhaustion, first violation, or interruption. The context is
// checked at every dequeue, so a cancellation cuts the result at a node
// boundary. It also enforces the ample cycle proviso — a reduced expansion
// whose successors are all already visited is re-expanded in full before
// walking — and counts the reduction statistics.
func (e *explorer) run(ctx context.Context, roots []succ) error {
	x := e.x
	if clock := e.opts.Clock; clock != nil {
		start := clock()
		defer func() { x.ReplayWall = clock() - start }()
	}
	stop, err := e.walk(nil, &expansion{succs: roots})
	for err == nil && !stop && e.head < len(e.queue) {
		nd := e.queue[e.head]
		e.queue[e.head] = nil
		e.head++
		if cerr := ctx.Err(); cerr != nil {
			x.Status = StatusInterrupted
			x.FrontierSize = e.frontierLeft()
			return fmt.Errorf("checker: exploration of %s interrupted: %w", e.proto.Name(), cerr)
		}
		exp := e.expand(nd, e.ample)
		if exp.reduced && provisoHit(&exp) {
			x.Reduction.ProvisoFallbacks++
			exp = e.expand(nd, false)
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
		stop, err = e.walk(nd, &exp)
	}
	return err
}

// countPrune attributes a rejected successor to the canonicalization that
// rewrote its handle: symmetry when a non-identity automorphism won (it
// strictly improved on the already-erased identity handle), dead-letter
// elision otherwise.
func (e *explorer) countPrune(s *succ) {
	switch {
	case s.permuted:
		e.x.Reduction.SymmetryPrunes++
	case s.elided:
		e.x.Reduction.ElisionPrunes++
	}
}

// walk folds one node's expansion into the exploration, its edges in event
// order. A successor is accepted when expansion materialized it (it was not
// yet visited then) and the visited set admits it now (no earlier sibling
// of the same expansion shares its handle); rejected successors whose
// handle was rewritten by a canonicalization count as prunes. stop is set
// when the exploration should end with the current partial result (first
// violation reached, or budget exhausted — the latter also carries a
// *BudgetError).
func (e *explorer) walk(parent *node, exp *expansion) (stop bool, err error) {
	x := e.x
	if exp.err != nil {
		return false, exp.err
	}
	for j := range exp.succs {
		s := &exp.succs[j]
		if parent != nil && x.parents != nil {
			if _, linked := x.parents[s.fp]; !linked {
				// A root reached again by a back-edge stays a root: a
				// link would close a cycle that traceTo never leaves.
				if _, root := x.rootKeys[s.fp]; !root {
					x.parents[s.fp] = parentLink{parent: parent.fp, event: s.event}
				}
			}
		}
		for _, v := range s.edgeViol {
			e.addViolation(v, s)
		}
		if e.opts.StopAtFirstViolation && e.violated {
			return true, nil
		}
		if s.nd == nil || !e.visited.Admit(s.fp, "") {
			e.countPrune(s)
			continue
		}
		if len(x.Configs) >= e.opts.maxNodes() {
			x.Status = StatusExhausted
			x.FrontierSize = e.frontierLeft()
			return true, &BudgetError{Protocol: e.proto.Name(), Nodes: e.opts.maxNodes()}
		}
		e.record(s)
		e.censusAdd(s.nd, s.stateIDs)
		for _, v := range s.nodeViol {
			e.addViolation(v, s)
		}
		if e.opts.StopAtFirstViolation && e.violated {
			return true, nil
		}
		e.queue = append(e.queue, s.nd)
	}
	return false, nil
}

// record accepts one newly discovered configuration: it rewrites the
// successor's intern ids into public ids in place — assigning the next public
// id, with the state's key and census entry, to a state admitted for the
// first time — and appends the ConfigRecord that owns them from here on.
func (e *explorer) record(s *succ) {
	x := e.x
	for p, id := range s.stateIDs {
		pub := e.public[id]
		if pub < 0 {
			pub = int32(len(x.stateKeys))
			e.public[id] = pub
			state := s.nd.cfg.States[p]
			x.stateKeys = append(x.stateKeys, state.Key())
			e.census = append(e.census, stateCensus{sample: state})
		}
		s.stateIDs[p] = pub
	}
	// The ledger is aliased, not copied: nothing mutates a ledger after
	// updateLedger built it, so the record can share it (as a child whose
	// step decided nothing shares its parent's).
	x.Configs = append(x.Configs, ConfigRecord{
		StateIdx:  s.stateIDs,
		Ledger:    s.nd.ledger,
		InputsVec: e.vecs[s.nd.vecIdx],
		Terminal:  s.terminal,
	})
	if s.terminal {
		x.Terminals++
	}
}

// finalize publishes the aggregate state census and the node count.
func (e *explorer) finalize() {
	e.x.States = e.publishCensus()
	e.x.NodeCount = len(e.x.Configs)
}

// ExploreContext is Explore with graceful degradation: on context
// cancellation or budget exhaustion it returns the partial Exploration —
// visited nodes, aggregated states, and every violation found so far, with
// Status and FrontierSize set — alongside a non-nil error (the context's
// error or a *BudgetError). Callers that can use partial results should
// inspect the returned Exploration even when err != nil.
func ExploreContext(ctx context.Context, proto sim.Protocol, opts Options) (*Exploration, error) {
	if opts.Problem != nil {
		return CheckContext(ctx, proto, *opts.Problem, opts)
	}
	x, _, err := explore(ctx, proto, nil, opts)
	return x, err
}

// newExplorer validates the options and builds the empty explorer of one
// walk: nothing visited, no state interned.
func newExplorer(proto sim.Protocol, problems []taxonomy.Problem, opts Options) (*explorer, error) {
	n := proto.N()
	maxFail := opts.MaxFailures
	if maxFail < 0 {
		maxFail = n - 1
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
		internFP:    make(map[fingerprint.Digest]int32),
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

	// Level 0: one root per requested input vector, walked through the
	// same path as every other node (no parent links, no decision edge).
	roots := make([]succ, 0, len(inputVecs))
	for i, inputs := range inputVecs {
		if len(inputs) != n {
			return nil, nil, fmt.Errorf("checker: input vector %v has length %d, want %d", inputs, len(inputs), n)
		}
		start := &node{cfg: sim.NewConfigOmission(proto, inputs, opts.omission()), ledger: make([]sim.Decision, n), inputs: inputs, vecIdx: int32(i)}
		e.vecs = append(e.vecs, inputsKey(inputs))
		s := succ{nd: start, terminal: start.cfg.Quiescent()}
		// Under symmetry, symmetric input vectors collapse to one explored
		// root; the walk's admission keeps the first.
		e.setHandle(start, &s)
		if x.rootKeys != nil {
			// First-wins: under symmetry two roots can share a canonical
			// fingerprint, and the admitted one is the first.
			if _, ok := x.rootKeys[start.fp]; !ok {
				x.rootKeys[start.fp] = start.key()
			}
		}
		s.stateIDs = e.stateIDsOf(start)
		s.nodeViol = e.nodeViolations(start)
		roots = append(roots, s)
	}

	err = e.run(ctx, roots)
	if err != nil {
		var be *BudgetError
		if errors.As(err, &be) {
			err = be
		} else if x.Status != StatusInterrupted {
			// A protocol error (sim.Apply failed) aborts with no result.
			return nil, nil, err
		}
	}
	e.finalize()
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
