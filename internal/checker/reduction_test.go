package checker

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/symmetry"
	"repro/internal/taxonomy"
)

// The reduction differential suite cross-checks every reduced mode against
// the unreduced reference walk (refExplore). A reduced exploration visits a
// different (smaller) node set, so the byte-level digest is NOT expected to
// match the reference; what must match is the semantics the reductions
// promise to preserve:
//
//   - the verdict: the set of violation kinds (ample modes additionally
//     preserve every violation's decide-edge context, but instance counts
//     shrink with the edge set);
//   - the decision census: the set of (inputs vector, decision ledger)
//     pairs over terminal configurations — exactly under ample modes,
//     up to processor relabeling under symmetry modes;
//   - the local-state census under ample modes (run commutation preserves
//     each processor's local history; dead-letter elision never touches a
//     local state);
//   - trace validity: a violating reduced run carries a non-empty
//     FirstTrace, a conforming one carries none.
//
// Budget-partial and cancelled reduced runs must additionally stop where
// the contract says: exhausted or complete within the budget, interrupted
// at the first dequeue.
var reductionModes = []Reduction{ReduceAmple, ReduceSymmetry, ReduceBoth}

// reductionCase is one complete exploration compared semantically against
// the unreduced reference. Perverse is absent: its mf≥1 state space does
// not terminate within any practical budget (it is the cyclic stress
// protocol), so it appears only in the partial and cancelled matrices.
type reductionCase struct {
	name  string
	proto sim.Protocol
	opts  Options
	// big cases are skipped in -short runs.
	big bool
}

func reductionCases() []reductionCase {
	return []reductionCase{
		{"tree-mf2", protocols.Tree{Procs: 3}, Options{MaxFailures: 2}, false},
		{"star-mf2", protocols.Star{Procs: 3}, Options{MaxFailures: 2}, false},
		{"chain-mf2", protocols.Chain{Procs: 3}, Options{MaxFailures: 2}, false},
		{"fullexchange-mf0", protocols.FullExchange{Procs: 3}, Options{MaxFailures: 0}, false},
		{"fullexchange-mf1", protocols.FullExchange{Procs: 3}, Options{MaxFailures: 1}, true},
		{"ackcommit-mf2", protocols.AckCommit{Procs: 3}, Options{MaxFailures: 2}, true},
		{"haltingcommit-mf2", protocols.HaltingCommit{Procs: 3}, Options{MaxFailures: 2}, false},
	}
}

// violationKinds reduces an exploration's violations to the sorted set of
// distinct kinds — the verdict the reductions preserve.
func violationKinds(x *Exploration) []string {
	set := map[string]struct{}{}
	for _, v := range x.Violations {
		set[fmt.Sprint(v.Kind)] = struct{}{}
	}
	return sortedSet(set)
}

// decisionCensus renders the set of (inputs vector, decision ledger) pairs
// over a walk's terminal admissions, sorted.
func decisionCensus(log []admission) []string {
	set := map[string]struct{}{}
	for _, c := range log {
		if c.Terminal {
			set[censusLine(c.InputsVec, c.Ledger)] = struct{}{}
		}
	}
	return sortedSet(set)
}

// canonicalDecisionCensus orbit-canonicalizes the decision census: each
// (vector, ledger) pair is replaced by its minimum over the automorphism
// group, so censuses taken in different orbit frames become comparable.
// With an empty group this is decisionCensus.
func canonicalDecisionCensus(log []admission, perms []sim.ProcPerm) []string {
	set := map[string]struct{}{}
	for _, c := range log {
		if !c.Terminal {
			continue
		}
		best := censusLine(c.InputsVec, c.Ledger)
		for _, perm := range perms {
			vec := make([]byte, len(c.InputsVec))
			led := make([]sim.Decision, len(c.Ledger))
			for p := range c.Ledger {
				vec[perm[p]] = c.InputsVec[p]
				led[perm[p]] = c.Ledger[p]
			}
			if line := censusLine(string(vec), led); line < best {
				best = line
			}
		}
		set[best] = struct{}{}
	}
	return sortedSet(set)
}

func censusLine(vec string, ledger []sim.Decision) string {
	return fmt.Sprintf("%s|%v", vec, ledger)
}

// stateCensusKeys returns the sorted distinct local-state keys of the
// aggregate census.
func stateCensusKeys(x *Exploration) []string {
	set := map[string]struct{}{}
	for k := range x.States {
		set[k] = struct{}{}
	}
	return sortedSet(set)
}

// TestReductionDifferential walks every feasible library protocol to
// completion unreduced on the reference walk, then asserts that each
// reduced mode reproduces the verdict and the decision census — exactly
// under ample, up to relabeling under symmetry.
func TestReductionDifferential(t *testing.T) {
	prob := problem(taxonomy.WT, taxonomy.TC)
	for _, tc := range reductionCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.big && testing.Short() {
				t.Skip("large reference space; skipped in -short")
			}
			t.Parallel() // the cases share nothing; fullexchange-mf1's reference walk is half the package's time
			opts := tc.opts
			var refLog []admission
			ref, err := refExplore(context.Background(), tc.proto, []taxonomy.Problem{prob}, observing(opts, &refLog))
			if err != nil {
				t.Fatalf("unreduced reference: %v", err)
			}
			opts.TrackTraces = true
			perms := symmetry.ForProtocol(tc.proto)
			refKinds := violationKinds(ref)
			refCensus := decisionCensus(refLog)
			refCanon := canonicalDecisionCensus(refLog, perms)
			refStates := stateCensusKeys(ref)

			for _, mode := range reductionModes {
				opts.Reduction = mode
				var log []admission
				x, err := CheckContext(context.Background(), tc.proto, prob, observing(opts, &log))
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if x.NodeCount > ref.NodeCount {
					t.Errorf("%v: reduced run grew the space: %d > %d nodes", mode, x.NodeCount, ref.NodeCount)
				}
				if got := violationKinds(x); !slices.Equal(got, refKinds) {
					t.Errorf("%v: verdict diverged: kinds %v, want %v", mode, got, refKinds)
				}
				if mode == ReduceAmple {
					if got := decisionCensus(log); !slices.Equal(got, refCensus) {
						t.Errorf("%v: decision census diverged (%d vs %d entries)", mode, len(got), len(refCensus))
					}
					if got := stateCensusKeys(x); !slices.Equal(got, refStates) {
						t.Errorf("%v: local-state census diverged (%d vs %d states)", mode, len(got), len(refStates))
					}
				} else {
					if got := canonicalDecisionCensus(log, perms); !slices.Equal(got, refCanon) {
						t.Errorf("%v: canonical decision census diverged (%d vs %d entries)", mode, len(got), len(refCanon))
					}
				}
				if x.Conforms() != (len(refKinds) == 0) {
					t.Errorf("%v: conformance flipped", mode)
				}
				if !x.Conforms() && len(x.FirstTrace) == 0 {
					t.Errorf("%v: violating run has no FirstTrace", mode)
				}
				if x.Conforms() && len(x.FirstTrace) != 0 {
					t.Errorf("%v: conforming run has a FirstTrace", mode)
				}
			}
		})
	}
}

// reducedDigest is exploreDigest plus the reduction counters, so the
// repeat-run comparison also pins the stats the walk counts.
func reducedDigest(x *Exploration, log []admission) string {
	return fmt.Sprintf("%+v\n%s", x.Reduction, exploreDigest(x, log))
}

// TestReductionPartialDeterminism asserts that budget-capped reduced
// explorations — which stop mid-space and report a partial prefix — repeat
// byte for byte, reduction counters included, for every mode on the
// diffCases matrix (including Perverse, whose full space never terminates,
// exercising the proviso on a cyclic graph).
func TestReductionPartialDeterminism(t *testing.T) {
	prob := problem(taxonomy.WT, taxonomy.TC)
	for _, tc := range diffCases() {
		if tc.opts.MaxNodes == 0 {
			continue // the complete cases are covered by TestReductionDifferential
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range reductionModes {
				var base string
				for run := 0; run < 2; run++ {
					opts := tc.opts
					opts.TrackTraces = true
					opts.Reduction = mode
					var log []admission
					x, err := CheckContext(context.Background(), tc.proto, prob, observing(opts, &log))
					if x == nil {
						t.Fatalf("%v: nil exploration (err=%v)", mode, err)
					}
					// A reduced run may fit the whole quotient space inside
					// the budget that truncates the full space (that is the
					// point of the reduction).
					switch x.Status {
					case StatusComplete:
					case StatusExhausted:
						if x.NodeCount != tc.opts.MaxNodes {
							t.Errorf("%v: exhausted at %d nodes, want exactly the budget %d", mode, x.NodeCount, tc.opts.MaxNodes)
						}
					default:
						t.Fatalf("%v: status %v, want budget-exhausted or complete", mode, x.Status)
					}
					if d := reducedDigest(x, log); run == 0 {
						base = d
					} else if d != base {
						t.Errorf("%v: partial reduced run does not repeat:\n%s", mode, firstDiff(base, d))
					}
				}
			}
		})
	}
}

// TestReductionCancelledDeterminism asserts that a cancelled reduced
// exploration is cut at its first dequeue in every mode: Interrupted, with
// the roots accepted and nothing expanded.
func TestReductionCancelledDeterminism(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prob := problem(taxonomy.WT, taxonomy.TC)
	for _, mode := range reductionModes {
		x, err := CheckContext(ctx, protocols.Star{Procs: 3}, prob, Options{
			MaxFailures: 2, TrackTraces: true, Reduction: mode,
		})
		if x == nil {
			t.Fatalf("%v: nil exploration", mode)
		}
		if err == nil || x.Status != StatusInterrupted {
			t.Fatalf("%v: status = %v, err = %v, want interrupted", mode, x.Status, err)
		}
		if x.NodeCount < 1 || x.FrontierSize != x.NodeCount {
			t.Fatalf("%v: cancelled before the first expansion with %d nodes and %d frontier, want the accepted roots as the frontier",
				mode, x.NodeCount, x.FrontierSize)
		}
		if rs := x.Reduction; rs.AmpleNodes+rs.FullNodes != 0 {
			t.Errorf("%v: a pre-cancelled run expanded %d nodes", mode, rs.AmpleNodes+rs.FullNodes)
		}
	}
}

// materializedHandle is the canonicalization the digest shortcut replaced,
// kept here as its oracle: every candidate is built (WithoutDeadBuffers,
// sim.PermuteConfig, the ledger relabelled so that p's decision sits at
// perm[p]) and hashed cold, and the Digest.Less-minimal fingerprint wins.
func materializedHandle(e *explorer, nxt *node) (fp fingerprint.Digest, elided, permuted bool) {
	fp = nodeFP(&node{cfg: nxt.cfg, ledger: nxt.ledger})
	base := nxt.cfg
	if e.elide {
		if erased, changed := base.WithoutDeadBuffers(); changed {
			base, elided = erased, true
			fp = nodeFP(&node{cfg: base, ledger: nxt.ledger})
		}
	}
	for _, perm := range e.symPerms {
		pcfg, _ := sim.PermuteConfig(base, perm)
		ledger := make([]sim.Decision, len(nxt.ledger))
		for p, d := range nxt.ledger {
			ledger[perm[p]] = d
		}
		if cfp := nodeFP(&node{cfg: pcfg, ledger: ledger}); cfp.Less(fp) {
			fp, permuted = cfp, true
		}
	}
	return fp, elided, permuted
}

// TestCanonicalizeDigestMatchesMaterialized hooks every canonicalized
// successor of two ReduceBoth explorations and asserts that the handle the
// digest path produced is the one full materialization produces — same
// fingerprint, same flags. It then pins the steady-state cost: a warm
// canonicalizeSucc allocates nothing.
func TestCanonicalizeDigestMatchesMaterialized(t *testing.T) {
	defer func() { canonicalizeHook = nil }()
	prob := problem(taxonomy.WT, taxonomy.TC)
	for _, tc := range []struct {
		proto sim.Protocol
		mf    int
	}{
		{protocols.Star{Procs: 3}, 2},
		{protocols.FullExchange{Procs: 3}, 0},
	} {
		var calls, elided, permuted int
		var warmE *explorer
		var warm []*node
		canonicalizeHook = func(e *explorer, s succ) {
			nxt := s.nd
			fp, el, pm := materializedHandle(e, nxt)
			calls++
			if el {
				elided++
			}
			if pm {
				permuted++
			}
			if len(warm) < 64 {
				warmE, warm = e, append(warm, nxt)
			}
			if nxt.fp != fp || s.elided != el || s.permuted != pm {
				t.Errorf("%s after %v: digest handle %v (elided=%v permuted=%v), materialized %v (%v %v)",
					tc.proto.Name(), s.event, nxt.fp, s.elided, s.permuted, fp, el, pm)
			}
		}
		_, err := CheckContext(context.Background(), tc.proto, prob, Options{MaxFailures: tc.mf, Reduction: ReduceBoth})
		if err != nil {
			t.Fatal(err)
		}
		canonicalizeHook = nil
		if calls == 0 || permuted == 0 || (tc.mf > 0 && elided == 0) {
			t.Fatalf("%s: hook saw %d successors, %d elided, %d permuted — matrix does not exercise the shortcut",
				tc.proto.Name(), calls, elided, permuted)
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, nxt := range warm {
				warmE.setHandle(&succ{nd: nxt})
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm canonicalizeSucc allocates %.2f times per %d successors, want 0",
				tc.proto.Name(), allocs, len(warm))
		}
	}
}
