package checker

import (
	"fmt"
	"slices"

	"repro/internal/fingerprint"
	"repro/internal/sim"
	"repro/internal/symmetry"
)

// Reduction selects the state-space reductions an exploration applies.
// Every reduction preserves the conformance verdict (the set of violation
// kinds) and the terminal decision structure — ample sets and elision
// preserve the exact terminal configurations and decision census; symmetry
// preserves them up to processor relabeling. A reduced run visits fewer
// configurations, so NodeCount describes the reduced graph. Dead-letter
// elision alone keeps the state census exact (CensusExact): every local
// state, concurrency set, input set and occupancy of the full space, so
// Safety on it is a proof. The other modes admit only some accessible
// configurations, and Safety on them is Partial. DESIGN.md §8 states the
// soundness arguments; the reduction differential suite cross-checks every
// reduced mode against the unreduced reference walk.
type Reduction int

const (
	// ReduceNone explores every interleaving (the default).
	ReduceNone Reduction = iota
	// ReduceAmple applies ample-set partial-order reduction — at a
	// configuration where some processor is mid-send, only that
	// processor's events are expanded (see ampleProc) — plus dead-letter
	// elision (see ReduceElide).
	ReduceAmple
	// ReduceSymmetry canonicalizes each node's dedup handle by minimizing
	// over the protocol topology's automorphism group (internal/symmetry),
	// collapsing symmetric configurations to one representative. Protocols
	// without a usable group, and walks under an omission budget, explore
	// unreduced.
	ReduceSymmetry
	// ReduceBoth applies both reductions.
	ReduceBoth
	// ReduceElide applies dead-letter elision alone: the dedup handle
	// erases messages addressed to failed or halted processors, which can
	// never be delivered, so configurations differing only in that inert
	// garbage collapse to one node (see sim.Config.WithoutDeadBuffers).
	// The erased view is a bisimulation quotient that touches no local
	// state, so the census — and Safety — is the unreduced walk's.
	ReduceElide
)

// String names the reduction for flags and reports.
func (r Reduction) String() string {
	switch r {
	case ReduceNone:
		return "none"
	case ReduceAmple:
		return "ample"
	case ReduceSymmetry:
		return "symmetry"
	case ReduceBoth:
		return "both"
	case ReduceElide:
		return "elide"
	default:
		return "invalid"
	}
}

// ParseReduction parses a -reduce flag value.
func ParseReduction(s string) (Reduction, error) {
	switch s {
	case "", "none":
		return ReduceNone, nil
	case "ample":
		return ReduceAmple, nil
	case "symmetry":
		return ReduceSymmetry, nil
	case "both":
		return ReduceBoth, nil
	case "elide":
		return ReduceElide, nil
	}
	return 0, fmt.Errorf("bad reduction %q (want none, ample, symmetry, both, or elide)", s)
}

// CensusExact reports whether a complete walk under r admits every
// accessible local state with its full concurrency set, input set and
// occupancies: true for ReduceNone and ReduceElide.
func (r Reduction) CensusExact() bool { return r == ReduceNone || r == ReduceElide }

// ample reports whether ample-set reduction is on.
func (r Reduction) ample() bool { return r == ReduceAmple || r == ReduceBoth }

// elides reports whether dead-letter elision is on.
func (r Reduction) elides() bool { return r.ample() || r == ReduceElide }

// usesSymmetry reports whether symmetry canonicalization is on.
func (r Reduction) usesSymmetry() bool { return r == ReduceSymmetry || r == ReduceBoth }

// ReductionStats are the deterministic reduction counters of one
// exploration, all counted by the walk in admission order.
type ReductionStats struct {
	// AmpleNodes / FullNodes split the stepped nodes into reduced (ample
	// subset) and full ones. Unreduced runs count everything in
	// FullNodes.
	AmpleNodes int
	FullNodes  int
	// AmpleEvents / FullEvents count the events those nodes took; AmpleEvents/AmpleNodes is the average ample-set size.
	AmpleEvents int64
	FullEvents  int64
	// ProvisoFallbacks counts nodes whose ample set was dropped for the
	// full event set because every ample successor was already visited (the
	// ample progress proviso; see step). They are counted under FullNodes.
	ProvisoFallbacks int
	// SymmetryPrunes counts rejected successors whose dedup handle was
	// canonicalized away from their own frame by a non-identity
	// automorphism — admissions that only symmetry made into duplicates.
	SymmetryPrunes int64
	// ElisionPrunes counts rejected successors whose dedup handle was
	// computed with dead letters erased — configurations that only differ
	// from an already-visited one in messages addressed to failed or
	// halted processors.
	ElisionPrunes int64
}

// ampleProc picks the ample processor of a configuration: the
// lowest-indexed processor in a Sending state, if any.
//
// Why {SendStep(p), Fail(p)} is a sound ample set at such a configuration:
// while p is Sending, no event of any other processor can read or write
// p's state, deliveries to p are not applicable, and p's two events are
// independent of every other enabled event — SendStep(p)/Fail(p) touch p's
// state and append messages on p's outgoing channels (per-channel sequence
// numbers are disjoint from every other processor's), and buffer inserts
// commute with other inserts and with removals of different messages. An
// enabled Omit(q, µ) targets a Receiving q ≠ p, and a Sending p is never
// omission-faulty, so neither ample event touches the omission accounting
// (see initReduction). So every run from the configuration is
// Mazurkiewicz-equivalent to one taking an ample event first (C1), the set
// is nonempty whenever any event is enabled at a non-quiescent
// configuration with a Sending processor (C0), and deferred events stay
// enabled. The cycle condition is enforced by step's proviso as each ample
// set is built.
func ampleProc(cfg *sim.Config) (sim.ProcID, bool) {
	for p := range cfg.States {
		if cfg.KindAt(sim.ProcID(p)) == sim.Sending {
			return sim.ProcID(p), true
		}
	}
	return 0, false
}

// appendAmpleEvents appends the ample events for processor p: its sending
// step, plus its failure when the failure budget and FailProcs allow it.
func (sh *shard) appendAmpleEvents(events []sim.Event, p sim.ProcID, failedCount int) []sim.Event {
	events = append(events, sim.Event{Proc: p, Type: sim.SendStepEvent})
	if failedCount < sh.e.maxFail && sh.e.failAllowed[p] {
		events = append(events, sim.Event{Proc: p, Type: sim.Fail})
	}
	return events
}

// canonicalizeSucc gives a built successor its dedup handle and fills its
// vector. Without a reduction the vector is one slot and the handle is
// nodeFP; two canonicalizations rewrite it, and compose:
//
// Dead-letter elision (ample modes and ReduceElide) erases the buffers of
// failed and halted processors before hashing, so configurations that
// differ only in permanently undeliverable messages share one handle. The
// erased view is a bisimulation quotient — see
// sim.Config.WithoutDeadBuffers.
//
// Symmetry (symmetry modes) minimizes the handle over the topology
// automorphism group's orbit: for each automorphism, the candidate handle
// is the permuted (erased) node's fingerprint, and the minimum by
// Digest.Less wins. Erasure and permutation commute — an automorphism
// relocates a processor's state and buffer together — so erasing first is
// both correct and cheaper.
//
// The handle lands on the node, its flags on the succ. The node itself
// stays in its own frame — every stored configuration is genuinely
// reachable and traces replay unchanged — only the handle is canonical,
// so the first-reached member of a class represents the class.
//
// The candidates are the node's vector: sim.PermuteMemo's vector of the
// configuration (one memoized row of relabelled terms per component) plus
// the ledger's terms at each candidate's positions — value-equal to
// materializing each candidate and hashing it cold, so the same orbit member
// wins (the tests hold every handle to that materialization). A queued node
// keeps its vector, so its successors' vectors are predicted by shifting it
// (predictHandle) and only edges the prediction cannot vouch for come here.
func (sh *shard) canonicalizeSucc(parent *node, s *succ) {
	nd := s.nd
	elided, ok := sh.permMemo.Vector(s.vec, nd.cfg, sh.e.elide)
	if !ok {
		panic("checker: symmetry group present but state does not implement sim.Permuter")
	}
	s.vec[0] = s.vec[0].Add(ledgerFP(nd.ledger))
	for i, perm := range sh.e.symPerms {
		s.vec[1+i] = s.vec[1+i].Add(permutedLedgerFP(nd.ledger, perm))
	}
	s.elided = elided
	s.fp, s.permuted = leastHandle(s.vec)
	nd.fp = s.fp
	if canonicalizeHook != nil {
		canonicalizeHook(sh, parent, *s)
	}
}

// predictHandle derives the handle of s.event's successor of nd — with its
// vector, from pvec, nd's — without building it, and leaves s unbuilt (s.nd
// nil): the configuration's slots move by sim.Predictor.Shift, the ledger's
// by the one term a new decision adds. false means the caller must build it:
// the event is irregular, the ledger transition is one the delta rule cannot
// predict, or the decision is one some judge's rule forbids — so every
// violation is built, worded and ordered by the building path alone, and a
// prediction only ever vouches for an edge on which there is nothing to
// report or to link.
func (sh *shard) predictHandle(nd *node, pvec []fingerprint.Digest, s *succ, failureSeen bool) bool {
	copy(s.vec, pvec)
	shifted, ok := sh.predictor.Shift(sh.e.proto, nd.cfg, s.event, sh.permMemo, sh.e.elide, s.vec)
	if !ok {
		return false
	}
	d, ok := sh.newDecision(nd, s.event.Proc, shifted.Decision, shifted.Decided, failureSeen)
	if !ok {
		return false
	}
	if p := s.event.Proc; d != sim.NoDecision {
		s.vec[0] = s.vec[0].Add(ledgerTerm(p, d))
		for i, perm := range sh.e.symPerms {
			s.vec[1+i] = s.vec[1+i].Add(ledgerTerm(perm[p], d))
		}
	}
	s.nd, s.elided, s.predicted = nil, shifted.Elided, true
	s.fp, s.permuted = leastHandle(s.vec)
	if canonicalizeHook != nil {
		canonicalizeHook(sh, nd, *s)
	}
	return true
}

// leastHandle is the canonical handle among a vector's candidates: the
// Digest.Less-least, the identity slot winning ties; permuted reports that
// a relabelled candidate won.
func leastHandle(vec []fingerprint.Digest) (fp fingerprint.Digest, permuted bool) {
	fp = vec[0]
	for _, c := range vec[1:] {
		if c.Less(fp) {
			fp, permuted = c, true
		}
	}
	return fp, permuted
}

// canonicalizeHook, when set, observes every dedup handle the walk
// computes, reduced or not, with the parent it was stepped from (nil for a
// root): predicted ones (s.predicted, s.nd nil), predicted ones again once
// built (s.nd set), and built ones. Only tests set it, to hold every handle
// to the materialized path. Shards call it concurrently, so it must lock
// what it writes, and a hook that keeps a node or its parent must keep a
// copy: the walk recycles nodes it is done with.
var canonicalizeHook func(sh *shard, parent *node, s succ)

// permutedLedgerFP fingerprints the ledger relabelled by perm without
// building it: p's term is salted at perm[p].
//
//ccvet:pure
func permutedLedgerFP(ledger []sim.Decision, perm sim.ProcPerm) fingerprint.Digest {
	var d fingerprint.Digest
	for p, dec := range ledger {
		if dec != sim.NoDecision {
			d = d.Add(ledgerTerm(perm[p], dec))
		}
	}
	return d
}

// initReduction resolves the exploration's reduction configuration: the
// ample modes switch on ample-set expansion and dead-letter elision,
// ReduceElide elision alone, and the symmetry modes resolve the protocol's
// automorphism group, less the automorphisms that move FailProcs (empty
// for protocols without usable symmetry, which then canonicalize nothing).
// Every shard gets a sim.PermuteMemo over those automorphisms, of width 1
// when there are none: the handle is then the vector, so no queued node
// keeps one (see shard.level).
//
// Under an omission budget ample sets and elision stay on (DESIGN.md §8):
//
//   - Ample sets: SendStep(p) and Fail(p) are independent of every
//     Omit(q, µ). An Omit is offered only to a Receiving q, and it leaves
//     q's state alone, so only a Deliver (which rehabilitates q) or a
//     crash ends q's omission-faultiness: a Sending p is never
//     omission-faulty, and Fail(p) frees no mobile slot. Neither ample
//     event reads or writes the budget, and the omission triple is part
//     of every handle.
//   - Dead-letter elision: no enabled event reads a dead box — Omit, like
//     Deliver, is offered only to a Receiving target — so dead letters
//     stay inert.
//
// Symmetry stays off: the relabelled candidates would have to permute the
// omission masks, and PermuteConfig does not.
func (e *explorer) initReduction() {
	e.ample = e.opts.Reduction.ample()
	e.elide = e.opts.Reduction.elides()
	if e.opts.Reduction.usesSymmetry() && !e.opts.omission().Enabled() {
		// An automorphism relabels runs into runs only if it maps the
		// processors FailProcs lets fail onto themselves: otherwise the
		// relabelled run fails a processor the options forbid to fail. The
		// automorphisms that do form a subgroup (the setwise stabilizer of
		// FailProcs), so minimizing over them alone stays sound.
		e.symPerms = slices.DeleteFunc(slices.Clone(symmetry.ForProtocol(e.proto)), func(perm sim.ProcPerm) bool {
			for p, q := range perm {
				if e.failAllowed[p] != e.failAllowed[q] {
					return true
				}
			}
			return false
		})
	}
}
