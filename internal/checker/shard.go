package checker

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/fingerprint"
	"repro/internal/frontier"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// shard is the walk of the space the admitted roots of one orbit of input
// vectors reach — one root each without symmetry. Every node carries its
// root's input vector, which its handle salts in (relabelled with the
// processors under symmetry), so two shards never reach a common handle:
// each keeps its own visited set, levels, transition cache, free list and
// parent links, and steps its nodes exactly as the joint walk would. A
// shard steps one breadth-first level at a time, concurrently with the
// others, and writes down what the joint walk must do with each parent and
// edge (steps, edges); it numbers, judges, counts and cuts nothing —
// explorer.fold replays the records in the joint walk's order and does all
// of that there. A shard only ends its level early where it can see that
// the fold will stop (see stepLevel), so that a cut walk does not step,
// build and keep the rest of a level the fold never reads.
type shard struct {
	e       *explorer // read only while the shard steps
	visited *frontier.SeqVisited
	// parents holds each linked node's first link, keyed by handle, when
	// Options.TrackTraces is set.
	parents   map[fingerprint.Digest]parentLink
	predictor *sim.Predictor
	// permMemo memoizes each component's relabelled terms under the
	// explorer's symPerms, so handles are computed from fingerprints, not
	// configurations; its width is 1 when there are none.
	permMemo *sim.PermuteMemo
	// level holds the nodes of the depth being stepped, in admission order,
	// and next the successors admitted while stepping it; a stepped slot is
	// nilled. With symmetry levelVecs and nextVecs keep each node's vector
	// (its candidate handles, permMemo.Width() digests) beside it, so node
	// carries none of it; at width 1 the vector is the node's handle and
	// they stay empty. pvec holds the vector of the node being stepped and
	// svecs the vectors of the at most two successors held at once.
	level, next         []*node
	levelVecs, nextVecs []fingerprint.Digest
	pvec                []fingerprint.Digest
	svecs               [2][]fingerprint.Digest
	// spans places the level's nodes in the joint walk's order of the
	// level, run by run. While the shard steps one, start is where the
	// run's admissions begin in next, and base how many nodes the shards
	// had admitted from the runs before it when last counted.
	spans       []span
	start, base int
	// free holds nodes the shard is done with — stepped, or built and
	// rejected — whose node and configuration the next built successor is
	// written into. Nothing reads a node after that: level slots are nilled,
	// parent links and canonical vectors are digests, violations are
	// strings. Ledgers are shared between nodes, so they are dropped, never
	// reused.
	free []*node
	// events is step's scratch, reused across nodes so enumerating the
	// enabled events allocates nothing in steady state.
	events []sim.Event
	// The level's records: one step per parent stepped, in level order,
	// and the edges that have something to fold, in edge order; pending
	// counts the prunes since the last edge recorded. fault is what ended
	// the level early — the error or (panicked) the panic value of the last
	// step — and nil when every parent was stepped or the level was
	// abandoned to a cancellation.
	steps    []stepRecord
	edges    []edgeRecord
	pending  prunes
	fault    any
	panicked bool
	// folded counts the level's steps the fold has replayed.
	folded int
	// The local states the shard has admitted, in order of first admission,
	// indexed by state digest in stateIdx; the slots of the level's
	// admitted configurations, n each; and describe's scratch for judging
	// one.
	states   []localState
	stateIdx map[fingerprint.Digest]int32
	slots    []slot
	found    []taxonomy.Violation
}

// stepRecord is what stepping one parent adds to the reduction counters
// before any of its successors is offered — ample: its ample set stood;
// proviso: its ample set was dropped for the full one; events: the events
// it took — and where its edges start in the shard's edges.
type stepRecord struct {
	edges          int32
	events         int32
	ample, proviso bool
}

// count adds the step to the exploration's counters.
func (st stepRecord) count(rs *ReductionStats) {
	if st.ample {
		rs.AmpleNodes++
		rs.AmpleEvents += int64(st.events)
		return
	}
	if st.proviso {
		rs.ProvisoFallbacks++
	}
	rs.FullNodes++
	rs.FullEvents += int64(st.events)
}

// edgeRecord is one edge the fold must see: the prunes counted before it,
// then what the joint walk's admission did on it — the violations each
// judge found on the edge (nil when none), and the successor when the
// shard's visited set admitted it (nil when it rejected it). at is the
// successor's handle, where its violations are traced to.
type edgeRecord struct {
	before     prunes
	violations [][]taxonomy.Violation
	child      *node
	at         fingerprint.Digest
	// What the fold reads of an admitted child instead of the node (see
	// describe): where its slots start in the shard's, its root's input
	// vector, its ledger's first decision, whether it is quiescent, and
	// whether some judge finds the configuration violating.
	slots     int32
	vec       int32
	decided   sim.Decision
	quiescent bool
	violates  bool
}

// prunes counts rejected successors whose handle a canonicalization
// rewrote: symmetry when a non-identity automorphism won (it strictly
// improved on the already-erased identity handle), dead-letter elision
// otherwise.
type prunes struct{ symmetry, elision int64 }

// count counts s, a rejected successor, as its canonicalization's prune.
func (p *prunes) count(s *succ) {
	switch {
	case s.permuted:
		p.symmetry++
	case s.elided:
		p.elision++
	}
}

// addTo adds the prunes to the exploration's counters.
func (p prunes) addTo(rs *ReductionStats) {
	rs.SymmetryPrunes += p.symmetry
	rs.ElisionPrunes += p.elision
}

// newShard returns an empty shard with the transition cache at its index in
// e.predictors (a fresh one appended when there is none).
func (e *explorer) newShard() *shard {
	if k := len(e.shards); k == len(e.predictors) {
		e.predictors = append(e.predictors, sim.NewPredictor())
	}
	sh := &shard{
		e:         e,
		visited:   frontier.NewSeqVisited(frontier.DedupFingerprint),
		predictor: e.predictors[len(e.shards)],
		permMemo:  sim.NewPermuteMemo(e.symPerms),
		stateIdx:  make(map[fingerprint.Digest]int32),
	}
	if e.opts.TrackTraces {
		sh.parents = make(map[fingerprint.Digest]parentLink)
	}
	w := sh.permMemo.Width()
	sh.pvec = make([]fingerprint.Digest, w)
	sh.svecs = [2][]fingerprint.Digest{make([]fingerprint.Digest, w), make([]fingerprint.Digest, w)}
	return sh
}

// enqueue puts an admitted node, with its vector, in the next level.
func (sh *shard) enqueue(nd *node, vec []fingerprint.Digest) {
	sh.next = append(sh.next, nd)
	if len(vec) > 1 {
		sh.nextVecs = append(sh.nextVecs, vec...)
	}
}

// link records the first edge reaching nd's handle, from parent by event
// (nd is a root when parent is nil): first-wins, so a back-edge into a root
// finds the root linked to itself.
func (sh *shard) link(parent *node, nd *node, event sim.Event) {
	if sh.parents == nil {
		return
	}
	if _, linked := sh.parents[nd.fp]; !linked {
		l := parentLink{parent: nd.fp, vec: nd.vecIdx}
		if parent != nil {
			l.parent, l.event = parent.fp, event
		}
		sh.parents[nd.fp] = l
	}
}

// traceTo is the counterexample ending at the node with handle fp: the
// links back to the root they end at, that root's input vector, and the
// events from it.
func (sh *shard) traceTo(fp fingerprint.Digest) ([]sim.Bit, sim.Schedule) {
	var sched sim.Schedule
	link := sh.parents[fp]
	for link.parent != fp {
		sched = append(sched, link.event)
		fp = link.parent
		link = sh.parents[fp]
	}
	slices.Reverse(sched)
	return sh.e.inputs[link.vec], sched
}

// errCut ends a level at an edge where the fold is sure to stop (see
// stepLevel).
var errCut = errors.New("checker: the fold stops at this edge")

// cutCheck is how many parents a shard steps between two readings of the
// other runs' counts: each reading loads lines the other shards write.
const cutCheck = 16

// stepLevel steps every node of the level in order, recording what the
// fold needs, and stops early at a protocol error or panic (fault), once
// done is closed, or where the fold is sure to stop before it reads
// further. That is so after an edge with violations when the walk stops at
// the first, and where the nodes admitted before an edge or a parent in the
// joint order exceed the level's room, so the budget is spent there if not
// sooner. The shard counts those as its own admissions in the run it steps
// plus what the shards had admitted from the runs before it (explorer.
// admitted, read at each run and every cutCheck parents): a lower bound, as
// the counts only grow. The shard then marks the position as the level's
// cut, and no shard steps a parent after it. It never polls the context's
// Err: the fold does, once per parent, as the joint walk does at each
// dequeue.
func (sh *shard) stepLevel(done <-chan struct{}) {
	clear(sh.edges)
	sh.steps, sh.edges, sh.slots, sh.pending, sh.fault, sh.panicked, sh.folded = sh.steps[:0], sh.edges[:0], sh.slots[:0], prunes{}, nil, false, 0
	spans := sh.spans
	sh.spans = sh.spans[:0]
	defer func() {
		if v := recover(); v != nil {
			sh.fault, sh.panicked = v, true
		}
	}()
	e, w := sh.e, len(sh.pvec)
	at, left, run := 0, 0, 0
	for i, nd := range sh.level {
		select {
		case <-done:
			return
		default:
		}
		if left == 0 {
			at, left, run, spans = spans[0].at, spans[0].n, spans[0].run, spans[1:]
			sh.start, sh.base = len(sh.next), e.admittedBefore(run)
		} else if i%cutCheck == 0 {
			sh.base = e.admittedBefore(run)
		}
		if int64(at) > e.cut.Load() {
			return
		}
		if sh.base+len(sh.next)-sh.start > e.room {
			e.cutAt(at - 1)
			return
		}
		if w == 1 {
			sh.pvec[0] = nd.fp
		} else {
			copy(sh.pvec, sh.levelVecs[i*w:])
		}
		sh.steps = append(sh.steps, stepRecord{edges: int32(len(sh.edges))})
		if err := sh.step(nd, &sh.steps[len(sh.steps)-1]); err == errCut {
			e.cutAt(at)
			return
		} else if err != nil {
			sh.fault = err
			return
		}
		e.admitted[run].n.Store(int64(len(sh.next) - sh.start))
		sh.flush()
		sh.level[i] = nil
		sh.release(nd)
		at, left = at+1, left-1
	}
}

// advance makes the admitted successors the level to step next.
func (sh *shard) advance() {
	sh.level, sh.next = sh.next, sh.level[:0]
	sh.levelVecs, sh.nextVecs = sh.nextVecs, sh.levelVecs[:0]
}

// record appends an edge for the fold, with the prunes counted since the
// last one.
func (sh *shard) record(r edgeRecord) {
	r.before, sh.pending = sh.pending, prunes{}
	sh.edges = append(sh.edges, r)
}

// flush records the prunes a parent's last edges counted, if any.
func (sh *shard) flush() {
	if sh.pending != (prunes{}) {
		sh.record(edgeRecord{})
	}
}

// step walks one node of the level: each enabled event, in event order,
// gets its successor's handle (handle), and the successor is either
// rejected as already visited without being built or built once and handed
// to admit (offer). The counters it adds before offering anything go to st.
func (sh *shard) step(nd *node, st *stepRecord) error {
	e := sh.e
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
		events := sh.appendAmpleEvents(scratch[:0], p, failedCount)
		for i, ev := range events {
			held[i] = succ{event: ev, vec: sh.svecs[i]}
			if err := sh.handle(nd, &held[i], failureSeen); err != nil {
				return err
			}
			fresh = fresh || !sh.visited.Seen(held[i].fp)
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
			st.ample, st.events = true, int32(len(events))
			for i := range events {
				if err := sh.offer(nd, &held[i], failureSeen); err != nil {
					return err
				}
			}
			return nil
		}
		st.proviso = true
		for i := range events {
			if held[i].nd != nil {
				sh.release(held[i].nd)
			}
		}
	}

	events := sim.AppendEnabled(sh.events[:0], nd.cfg)
	if failedCount < e.maxFail {
		for p := 0; p < e.n; p++ {
			if e.failAllowed[p] && !nd.cfg.Faulty(sim.ProcID(p)) {
				events = append(events, sim.Event{Proc: sim.ProcID(p), Type: sim.Fail})
			}
		}
	}
	sh.events = events
	st.events = int32(len(events))
	// Each successor's handle is predicted incrementally from the parent's
	// vector (predictHandle) and an already-visited successor is never
	// built — the bulk of all edges in a dense state space. The one thing
	// judged on a seen edge, the decision rule, is a predicate over the
	// prediction.
	for _, ev := range events {
		s := succ{event: ev, vec: sh.svecs[0]}
		if err := sh.handle(nd, &s, failureSeen); err != nil {
			return err
		}
		if err := sh.offer(nd, &s, failureSeen); err != nil {
			return err
		}
	}
	return nil
}

// handle gives successor s of nd its handle and vector: predicted from the
// parent's vector where predictHandle can vouch for the edge, built
// otherwise.
func (sh *shard) handle(nd *node, s *succ, failureSeen bool) error {
	if sh.predictHandle(nd, sh.pvec, s, failureSeen) {
		return nil
	}
	return sh.build(nd, s)
}

// offer hands a successor to admit, building it first if only its handle
// was predicted — unless that handle is already visited: then it is
// rejected as admit would reject it (a seen predicted edge has nothing to
// link or report), and never built.
func (sh *shard) offer(parent *node, s *succ, failureSeen bool) (err error) {
	if s.nd == nil {
		if sh.visited.Seen(s.fp) {
			sh.pending.count(s)
			return nil
		}
		if s.nd, err = sh.materialize(parent, s.event); err != nil {
			return err
		}
		s.nd.fp = s.fp
		if canonicalizeHook != nil {
			canonicalizeHook(sh, parent, *s)
		}
	}
	return sh.admit(parent, s, failureSeen)
}

// admit offers one built successor of parent to the shard: the trace link
// and the judges' decision rules on the edge come first, since an edge into
// a visited node is still an edge (failureSeen is the parent's reading);
// then the visited set decides, and a node it admits joins the next level.
// What the joint walk does with the edge — report its violations, count the
// prune or number, census and judge the node, and stop there — the fold
// does from the record. admit returns errCut when the fold is sure to stop
// at the edge (see stepLevel).
func (sh *shard) admit(parent *node, s *succ, failureSeen bool) error {
	nd := s.nd
	sh.link(parent, nd, s.event)
	var found [][]taxonomy.Violation
	for i := range sh.e.judges {
		if v := edgeViolations(nil, sh.e.judges[i].problem, parent, nd, failureSeen); len(v) > 0 {
			if found == nil {
				found = make([][]taxonomy.Violation, len(sh.e.judges))
			}
			found[i] = v
		}
	}
	stop := sh.e.opts.StopAtFirstViolation
	if !sh.visited.Admit(nd.fp, "") {
		if found != nil {
			sh.record(edgeRecord{violations: found, at: nd.fp})
		}
		sh.pending.count(s)
		sh.release(nd)
		if stop && found != nil {
			return errCut
		}
		return nil
	}
	r := edgeRecord{violations: found, child: nd, at: nd.fp}
	sh.describe(&r)
	sh.record(r)
	sh.enqueue(nd, s.vec)
	if stop && (found != nil || r.violates) || sh.base+len(sh.next)-sh.start > sh.e.room {
		return errCut
	}
	return nil
}

// build materializes s.event's successor of nd with its dedup handle.
func (sh *shard) build(nd *node, s *succ) (err error) {
	if s.nd, err = sh.materialize(nd, s.event); err != nil {
		return err
	}
	sh.canonicalizeSucc(nd, s)
	return nil
}

// materialize builds ev's successor of nd with its ledger — the transition
// cache already holds the stepped state's digest, so no built edge rehashes
// a state — and no handle, into a node from the free list when it has one.
func (sh *shard) materialize(nd *node, ev sim.Event) (*node, error) {
	var nxt *node
	if k := len(sh.free) - 1; k >= 0 {
		nxt, sh.free = sh.free[k], sh.free[:k]
	} else {
		nxt = &node{}
	}
	proto := sh.e.proto
	cfg, err := sh.predictor.Materialize(proto, nd.cfg, ev, nxt.cfg, nil)
	if err != nil {
		sh.release(nxt)
		return nil, fmt.Errorf("checker: exploring %s: %w", proto.Name(), err)
	}
	*nxt = node{cfg: cfg, ledger: updateLedger(nd.ledger, cfg, ev.Proc), inputs: nd.inputs, vecIdx: nd.vecIdx}
	return nxt, nil
}

// release puts a node the shard is done with on the free list, dropping
// what it shares with other nodes — its ledger, and the states and buffers
// its configuration points to — so that a parked node keeps nothing alive.
func (sh *shard) release(nd *node) {
	if nd.cfg != nil {
		clear(nd.cfg.States)
		clear(nd.cfg.Buffers)
	}
	nd.ledger = nil
	sh.free = append(sh.free, nd)
}

// newDecision is the decision a predicted step of p — whose post-state
// shows decision d when decided — adds to nd's ledger, NoDecision when it
// adds none. ok=false sends the edge to the building path: a decision
// change by way of an amnesic detour (the ledger delta is not a single
// added term), or a decision some judge's rule forbids.
func (sh *shard) newDecision(nd *node, p sim.ProcID, d sim.Decision, decided, failureSeen bool) (sim.Decision, bool) {
	if old := nd.ledger[p]; !decided || old == d {
		return sim.NoDecision, true
	} else if old != sim.NoDecision {
		return sim.NoDecision, false
	}
	for i := range sh.e.judges {
		if !sh.e.judges[i].problem.Rule.Permits(d, nd.inputs, failureSeen) {
			return sim.NoDecision, false
		}
	}
	return d, true
}
