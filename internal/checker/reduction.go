package checker

import (
	"fmt"

	"repro/internal/fingerprint"
	"repro/internal/sim"
	"repro/internal/symmetry"
)

// Reduction selects the state-space reductions an exploration applies.
// Both reductions preserve the conformance verdict (the set of violation
// kinds) and the terminal decision structure — ample sets preserve the
// exact terminal configurations and decision census; symmetry preserves
// them up to processor relabeling — but a reduced run visits fewer
// intermediate configurations, so NodeCount, the Configs list, and the
// state census describe the reduced graph, not the full one. DESIGN.md §8
// states the soundness arguments; the reduction differential suite
// cross-checks every reduced mode against the unreduced reference walk.
type Reduction int

const (
	// ReduceNone explores every interleaving (the default).
	ReduceNone Reduction = iota
	// ReduceAmple applies ample-set partial-order reduction — at a
	// configuration where some processor is mid-send, only that
	// processor's events are expanded (see ampleProc) — plus dead-letter
	// elision: the dedup handle erases messages addressed to failed or
	// halted processors, which can never be delivered, so configurations
	// differing only in that inert garbage collapse to one node (see
	// sim.Config.WithoutDeadBuffers).
	ReduceAmple
	// ReduceSymmetry canonicalizes each node's dedup handle by minimizing
	// over the protocol topology's automorphism group (internal/symmetry),
	// collapsing symmetric configurations to one representative. Protocols
	// without a usable group explore unreduced.
	ReduceSymmetry
	// ReduceBoth applies both reductions.
	ReduceBoth
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
	}
	return 0, fmt.Errorf("bad reduction %q (want none, ample, symmetry, or both)", s)
}

// ample reports whether ample-set reduction is on.
func (r Reduction) ample() bool { return r == ReduceAmple || r == ReduceBoth }

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
// commute with other inserts and with removals of different messages. So
// every run from the configuration is Mazurkiewicz-equivalent to one
// taking an ample event first (C1), the set is nonempty whenever any event
// is enabled at a non-quiescent configuration with a Sending processor
// (C0), and deferred events stay enabled. The cycle condition is enforced
// by step's proviso as each ample set is built.
func ampleProc(cfg *sim.Config) (sim.ProcID, bool) {
	for p := range cfg.States {
		if cfg.States[p].Kind() == sim.Sending {
			return sim.ProcID(p), true
		}
	}
	return 0, false
}

// appendAmpleEvents appends the ample events for processor p: its sending
// step, plus its failure when the failure budget and FailProcs allow it.
func (e *explorer) appendAmpleEvents(events []sim.Event, p sim.ProcID, failedCount int) []sim.Event {
	events = append(events, sim.Event{Proc: p, Type: sim.SendStepEvent})
	if failedCount < e.maxFail && e.failAllowed[p] {
		events = append(events, sim.Event{Proc: p, Type: sim.Fail})
	}
	return events
}

// canonicalizing reports whether dedup handles are canonical forms rather
// than the successor's own fingerprint/key: dead-letter elision or
// symmetry canonicalization (or both) rewrite the handle.
func (e *explorer) canonicalizing() bool {
	return e.elide || len(e.symPerms) > 0
}

// canonicalizeSucc replaces the successor's dedup handle with its
// canonical form. Two canonicalizations compose:
//
// Dead-letter elision (ample modes) erases the buffers of failed and
// halted processors before hashing, so configurations that differ only in
// permanently undeliverable messages share one handle. The erased view is
// a bisimulation quotient — see sim.Config.WithoutDeadBuffers.
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
// No component is hashed twice and nothing is materialized: the erased
// handle is the warm fingerprint minus the dead letters' terms, and each
// permuted candidate is a sum of memoized relabelled component digests
// (sim.PermuteMemo) plus the ledger terms salted at their permuted
// positions — value-equal to materializing the candidate and hashing it
// cold, so the same orbit member wins (the tests hold every handle to that
// materialization).
func (e *explorer) canonicalizeSucc(s *succ) {
	nd := s.nd
	if e.elide {
		if fp, changed := nd.cfg.ElidedFingerprint(); changed {
			nd.fp, s.elided = fp.Add(ledgerFP(nd.ledger)), true
		}
	}
	for i, perm := range e.symPerms {
		fp, ok := e.permMemo.Fingerprint(nd.cfg, i, e.elide)
		if !ok {
			panic("checker: symmetry group present but state does not implement sim.Permuter")
		}
		if fp = fp.Add(permutedLedgerFP(nd.ledger, perm)); fp.Less(nd.fp) {
			nd.fp, s.permuted = fp, true
		}
	}
	if canonicalizeHook != nil {
		canonicalizeHook(e, *s)
	}
}

// canonicalizeHook, when set, observes every canonicalized successor. Only
// tests set it (to cross-check the digest shortcut against the
// materialized path).
var canonicalizeHook func(e *explorer, s succ)

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
// ample modes switch on ample-set expansion and dead-letter elision, the
// symmetry modes resolve the protocol's automorphism group (empty for
// protocols without usable symmetry, which then canonicalize nothing).
//
// When an omission budget is enabled, every reduction is conservatively
// disabled and the space explores in full (DESIGN.md §8):
//
//   - Ample sets: Omit(q, µ) does not commute with its target's events the
//     way the {SendStep(p), Fail(p)} argument needs — an omission charges
//     the shared budget and (in mobile mode) flips q's faulty bit, so
//     deferring it past p's sending burst can reach configurations whose
//     remaining budget differs, which are distinct nodes.
//   - Dead-letter elision: messages addressed to failed or halted
//     processors are no longer inert — Omit is structurally applicable to
//     a halted processor's buffer, and applying it changes the budget
//     accounting, so two configurations differing only in dead letters
//     are no longer bisimilar.
//   - Symmetry: canonical handles would have to permute the omission
//     bitmasks along with states and buffers, which PermuteConfig does
//     not do.
//
// Each could be re-enabled with a sharper argument (e.g. excluding Omit
// targets from the ample processor's independence set, erasing dead
// letters only when the budget is exhausted); until such a proof lands,
// correctness wins over speed.
func (e *explorer) initReduction() {
	if e.opts.omission().Enabled() {
		e.ample, e.elide, e.symPerms = false, false, nil
		return
	}
	e.ample = e.opts.Reduction.ample()
	e.elide = e.ample
	if e.opts.Reduction.usesSymmetry() {
		e.symPerms = symmetry.ForProtocol(e.proto)
		if len(e.symPerms) > 0 {
			e.permMemo = sim.NewPermuteMemo(e.symPerms)
		}
	}
}
