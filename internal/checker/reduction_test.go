package checker

import (
	"context"
	"fmt"
	"slices"
	"sync"
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
//     pairs over terminal configurations — exactly under ample and elide,
//     up to processor relabeling under symmetry modes;
//   - the local-state census under ample and elide (run commutation
//     preserves each processor's local history; dead-letter elision never
//     touches a local state — TestCensusElidedIsExact holds elide's whole
//     census to the unreduced one);
//   - trace validity: a violating reduced run carries a non-empty
//     FirstTrace, a conforming one carries none.
//
// Budget-partial and cancelled reduced runs must additionally stop where
// the contract says: exhausted or complete within the budget, interrupted
// at the first dequeue.
var reductionModes = []Reduction{ReduceAmple, ReduceSymmetry, ReduceBoth, ReduceElide}

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
// under ample and elide, up to relabeling under symmetry.
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
				if !mode.usesSymmetry() {
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

// omissionReductionCases are the reduction differential's omission rows:
// tree, star, chain, ackcommit and haltingcommit at N = 3, each under
// budget 1, budget 2 with one mobile slot, and one failure plus budget 1
// with one mobile slot (the big rows, 37 k–111 k nodes unreduced).
func omissionReductionCases() []reductionCase {
	var cases []reductionCase
	for _, pc := range []struct {
		name  string
		proto sim.Protocol
	}{
		{"tree", protocols.Tree{Procs: 3}},
		{"star", protocols.Star{Procs: 3}},
		{"chain", protocols.Chain{Procs: 3}},
		{"ackcommit", protocols.AckCommit{Procs: 3}},
		{"haltingcommit", protocols.HaltingCommit{Procs: 3}},
	} {
		cases = append(cases,
			reductionCase{pc.name + "-ob1", pc.proto, Options{OmissionBudget: 1}, false},
			reductionCase{pc.name + "-ob2-mobile1", pc.proto, Options{OmissionBudget: 2, MobileOmissions: 1}, false},
			reductionCase{pc.name + "-mf1-ob1-mobile1", pc.proto, Options{MaxFailures: 1, OmissionBudget: 1, MobileOmissions: 1}, true})
	}
	return cases
}

// omissionPremise reports the first breach in c of the two facts the ample
// and elision arguments under an omission budget stand on (DESIGN.md §8):
// no Sending processor is omission-faulty, and no enabled Omit targets a
// failed or halted box. "" means none.
func omissionPremise(c *sim.Config) string {
	for p := range c.States {
		if c.KindAt(sim.ProcID(p)) == sim.Sending && c.OmissionFaultyProc(sim.ProcID(p)) {
			return fmt.Sprintf("p%d is Sending and omission-faulty", p)
		}
	}
	for _, ev := range sim.Enabled(c) {
		if k := c.KindAt(ev.Proc); ev.Type == sim.Omit && (k == sim.Failed || k == sim.Halted) {
			return fmt.Sprintf("%s is offered to a %v box", ev, k)
		}
	}
	return ""
}

// TestReductionOmissionDifferential holds the ample modes and elide to the
// unreduced walk under omission budgets; symmetry is off under a budget, so
// both is ample sets plus dead-letter elision. All six problems share one
// CheckAll walk per mode, and each reduced walk must match the unreduced
// one in verdicts, in violation kinds where neither list reached the cap of
// 100, in its exact decision census and in its local-state census, and
// must take some ample expansion exactly when its mode has ample sets. Each reduced walk's first violations replay
// through chaos.Evaluate (firstOnRun): a reduced omission walk's
// counterexample is a run. Every node any walk admits pins the premises
// (omissionPremise); every edge a walk takes is an enabled event of an
// admitted node, or a Fail. -short skips the big rows.
func TestReductionOmissionDifferential(t *testing.T) {
	problems := taxonomy.SixProblems()
	for _, tc := range omissionReductionCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.big && testing.Short() {
				t.Skip("crash plus omission space of up to 111 k nodes; skipped in -short")
			}
			t.Parallel()
			walk := func(mode Reduction) ([]*Exploration, []admission) {
				var log []admission
				var breach string
				opts := observing(tc.opts, &log)
				opts.Reduction, opts.TrackTraces = mode, mode != ReduceNone
				record := opts.observe
				opts.observe = func(ids []int32, nd *node) {
					record(ids, nd)
					if b := omissionPremise(nd.cfg); b != "" && breach == "" {
						breach = nd.cfg.Key() + ": " + b
					}
				}
				xs, err := CheckAll(context.Background(), tc.proto, problems, opts)
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				if breach != "" {
					t.Errorf("%v: first admitted breach of a premise: %s", mode, breach)
				}
				return xs, log
			}
			ref, refLog := walk(ReduceNone)
			refCensus, refStates := decisionCensus(refLog), stateCensusKeys(ref[0])
			for _, mode := range []Reduction{ReduceAmple, ReduceBoth, ReduceElide} {
				xs, log := walk(mode)
				if rs := xs[0].Reduction; (rs.AmpleNodes > 0) != mode.ample() || rs.SymmetryPrunes != 0 {
					t.Errorf("%v: %d ample expansions and %d symmetry prunes; want some (none under elide) and none", mode, rs.AmpleNodes, rs.SymmetryPrunes)
				}
				if xs[0].NodeCount > ref[0].NodeCount {
					t.Errorf("%v: reduced run grew the space: %d > %d nodes", mode, xs[0].NodeCount, ref[0].NodeCount)
				}
				if got := decisionCensus(log); !slices.Equal(got, refCensus) {
					t.Errorf("%v: decision census diverged (%d vs %d entries)", mode, len(got), len(refCensus))
				}
				if got := stateCensusKeys(xs[0]); !slices.Equal(got, refStates) {
					t.Errorf("%v: local-state census diverged (%d vs %d states)", mode, len(got), len(refStates))
				}
				for i, x := range xs {
					got, want := violationKinds(x), violationKinds(ref[i])
					capped := len(x.Violations) == 100 || len(ref[i].Violations) == 100
					if x.Conforms() != ref[i].Conforms() || !capped && !slices.Equal(got, want) {
						t.Errorf("%v, %s: %d violations of kinds %v, unreduced %d of %v",
							mode, problems[i].Name(), len(x.Violations), got, len(ref[i].Violations), want)
					}
					if !x.Conforms() {
						firstOnRun(t, problems[i], x)
					}
				}
			}
		})
	}
}

// TestReductionFailProcs holds the symmetry modes to the unreduced walk
// when FailProcs is not invariant under the automorphism group: each of the
// six problems must get the same verdict and, where neither walk reached
// the cap of 100 violations, the same violation kinds (a capped list holds
// the kinds of the first 100, which depend on the walk's order). Minimizing
// over an automorphism that moves FailProcs merges a configuration with one
// whose failures the options forbid; on fullexchange(3) that hid every TC
// violation for FailProcs [p1]. -short skips the fullexchange(3) cells
// (2–5 s each unreduced).
func TestReductionFailProcs(t *testing.T) {
	problems := taxonomy.SixProblems()
	for _, proto := range []sim.Protocol{protocols.Star{Procs: 3}, protocols.Tree{Procs: 3}, protocols.FullExchange{Procs: 3}} {
		for _, fail := range [][]sim.ProcID{{0}, {1}, {2}, {0, 1}} {
			t.Run(fmt.Sprintf("%s/%v", proto.Name(), fail), func(t *testing.T) {
				if _, big := proto.(protocols.FullExchange); big && testing.Short() {
					t.Skip("fullexchange(3) mf1 walks take seconds")
				}
				t.Parallel()
				opts := Options{MaxFailures: 1, FailProcs: fail}
				ref, err := CheckAll(context.Background(), proto, problems, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []Reduction{ReduceSymmetry, ReduceBoth} {
					opts.Reduction = mode
					xs, err := CheckAll(context.Background(), proto, problems, opts)
					if err != nil {
						t.Fatalf("%v: %v", mode, err)
					}
					for i, x := range xs {
						got, want := violationKinds(x), violationKinds(ref[i])
						capped := len(x.Violations) == 100 || len(ref[i].Violations) == 100
						if x.Conforms() != ref[i].Conforms() || !capped && !slices.Equal(got, want) {
							t.Errorf("%v, %s: %d violations of kinds %v, unreduced %d of %v",
								mode, problems[i].Name(), len(x.Violations), got, len(ref[i].Violations), want)
						}
					}
				}
			})
		}
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

// TestCanonicalizeDigestMatchesMaterialized hooks every handle eight
// explorations compute — predicted from the parent's vector and never
// built, predicted and then built, and built then canonicalized (the
// fallback, and the roots) — and asserts that it is the one full
// materialization produces: same fingerprint, same flags. Every edge's
// successor is rebuilt by sim.Apply from the parent, not taken from the
// walk. The grudging rule forbids decisions on many edges, which drives
// the fallback. The ackcommit(3) omission cell (one failure, budget 1, one
// mobile slot) holds the omission terms of predicted handles; symmetry is
// off under its budget, so nothing there is permuted, and neither is
// anything under ReduceElide, which elides at width 1. The unreduced rows
// walk the same path at width 1: nothing is elided or permuted, and every
// handle is nodeFP of the node sim.Apply builds. It then pins the
// steady-state cost: a warm canonicalizeSucc and a warm predicted edge
// whose handle is already visited allocate nothing, each on the shard that
// computed it.
func TestCanonicalizeDigestMatchesMaterialized(t *testing.T) {
	defer func() { canonicalizeHook = nil }()
	wttc := problem(taxonomy.WT, taxonomy.TC)
	grudging := taxonomy.Problem{Rule: grudgingRule{}, Termination: taxonomy.WT, Consistency: taxonomy.TC}
	for _, tc := range []struct {
		proto sim.Protocol
		opts  Options
		prob  taxonomy.Problem
	}{
		{protocols.Star{Procs: 3}, Options{MaxFailures: 2, Reduction: ReduceBoth}, wttc},
		{protocols.FullExchange{Procs: 3}, Options{MaxFailures: 0, Reduction: ReduceBoth}, wttc},
		{protocols.Star{Procs: 3}, Options{MaxFailures: 1, Reduction: ReduceBoth}, grudging},
		{protocols.AckCommit{Procs: 3}, Options{MaxFailures: 1, OmissionBudget: 1, MobileOmissions: 1, Reduction: ReduceBoth}, wttc},
		{protocols.Star{Procs: 3}, Options{MaxFailures: 2, Reduction: ReduceElide}, wttc},
		{protocols.Star{Procs: 3}, Options{MaxFailures: 2, Reduction: ReduceNone}, wttc},
		{protocols.Star{Procs: 3}, Options{MaxFailures: 1, Reduction: ReduceNone}, grudging},
		{protocols.AckCommit{Procs: 3}, Options{MaxFailures: 1, OmissionBudget: 1, MobileOmissions: 1, Reduction: ReduceNone}, wttc},
	} {
		var calls, elided, permuted, predicted, predictedBuilt, fallback int
		type built struct {
			sh *shard
			nd *node
		}
		var warm []built
		type edge struct {
			sh          *shard
			parent      *node
			pvec        []fingerprint.Digest
			event       sim.Event
			failureSeen bool
		}
		var seen []edge
		// Shards call the hook concurrently: each call holds mu throughout.
		var mu sync.Mutex
		canonicalizeHook = func(sh *shard, parent *node, s succ) {
			mu.Lock()
			defer mu.Unlock()
			nxt := s.nd
			if parent != nil {
				cfg, _, err := sim.Apply(sh.e.proto, parent.cfg, s.event)
				if err != nil {
					t.Errorf("%s: %v", s.event, err)
					return
				}
				nxt = &node{cfg: cfg, ledger: ledgerAfter(parent.ledger, cfg)}
			}
			fp, el, pm := materializedHandle(sh.e, nxt)
			calls++
			if el {
				elided++
			}
			if pm {
				permuted++
			}
			switch {
			case s.predicted && s.nd == nil:
				predicted++
				if sh.visited.Seen(s.fp) && len(seen) < 64 {
					pvec := slices.Clone(sh.pvec)
					seen = append(seen, edge{sh, keep(parent), pvec, s.event, parent.cfg.OmissionsUsed() > 0 || failedIn(parent.cfg)})
				}
			case s.predicted:
				predictedBuilt++
			case parent != nil:
				fallback++
			}
			if s.nd != nil && len(warm) < 64 {
				warm = append(warm, built{sh, keep(s.nd)})
			}
			if s.fp != fp || (s.nd != nil && s.nd.fp != fp) || s.elided != el || s.permuted != pm {
				t.Errorf("%s after %v: digest handle %v (elided=%v permuted=%v predicted=%v), materialized %v (%v %v)",
					tc.proto.Name(), s.event, s.fp, s.elided, s.permuted, s.predicted, fp, el, pm)
			}
		}
		opts := tc.opts
		if _, err := CheckContext(context.Background(), tc.proto, tc.prob, opts); err != nil {
			t.Fatal(err)
		}
		canonicalizeHook = nil
		t.Logf("%s mf%d omissions %v %s reduce %v: %d handles: %d predicted (%d of them built), %d built then canonicalized, %d elided, %d permuted",
			tc.proto.Name(), opts.MaxFailures, opts.omission(), tc.prob.Rule.Name(), opts.Reduction, calls, predicted, predictedBuilt, fallback, elided, permuted)
		if opts.Reduction == ReduceNone {
			if calls == 0 || elided != 0 || permuted != 0 {
				t.Fatalf("%s unreduced: hook saw %d successors, %d elided, %d permuted — want some, none, none",
					tc.proto.Name(), calls, elided, permuted)
			}
		} else if symmetric := opts.Reduction.usesSymmetry() && !opts.omission().Enabled(); calls == 0 || symmetric && permuted == 0 || (opts.MaxFailures > 0 && elided == 0) {
			t.Fatalf("%s: hook saw %d successors, %d elided, %d permuted — matrix does not exercise the shortcut",
				tc.proto.Name(), calls, elided, permuted)
		}
		if predictedBuilt == 0 || predicted <= predictedBuilt || len(seen) == 0 {
			t.Fatalf("%s: %d predicted handles, %d of them built, %d seen — matrix does not exercise the prediction",
				tc.proto.Name(), predicted, predictedBuilt, len(seen))
		}
		if tc.prob.Rule == (grudgingRule{}) && fallback == 0 {
			t.Fatalf("%s: no edge fell back to building — matrix does not exercise the fallback", tc.proto.Name())
		}
		vec := make([]fingerprint.Digest, warm[0].sh.permMemo.Width())
		allocs := testing.AllocsPerRun(20, func() {
			for _, b := range warm {
				b.sh.canonicalizeSucc(nil, &succ{nd: b.nd, vec: vec})
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm canonicalizeSucc allocates %.2f times per %d successors, want 0",
				tc.proto.Name(), allocs, len(warm))
		}
		allocs = testing.AllocsPerRun(20, func() {
			for _, ed := range seen {
				s := succ{event: ed.event, vec: vec}
				if !ed.sh.predictHandle(ed.parent, ed.pvec, &s, ed.failureSeen) || !ed.sh.visited.Seen(s.fp) {
					t.Fatalf("%s: warm predicted edge %v no longer predicted seen", tc.proto.Name(), ed.event)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a warm predicted edge to a visited handle allocates %.2f times per %d edges, want 0",
				tc.proto.Name(), allocs, len(seen))
		}
	}
}

// keep is what a hook holds on to of a node the walk hands it: a copy. The
// walk recycles a node, configuration included, once it is done with it.
func keep(nd *node) *node {
	cp := *nd
	cp.cfg, cp.ledger = nd.cfg.Clone(), slices.Clone(nd.ledger)
	return &cp
}

// failedIn reports whether some processor of c has crashed.
func failedIn(c *sim.Config) bool {
	for p := range c.States {
		if c.Faulty(sim.ProcID(p)) {
			return true
		}
	}
	return false
}

// TestParseReductionRoundTrips: every mode parses back from its name, so
// each -reduce value the flags list is accepted, and an unknown name is
// refused.
func TestParseReductionRoundTrips(t *testing.T) {
	for _, mode := range append([]Reduction{ReduceNone}, reductionModes...) {
		if got, err := ParseReduction(mode.String()); err != nil || got != mode {
			t.Errorf("ParseReduction(%q) = %v, %v; want %v", mode.String(), got, err, mode)
		}
	}
	if _, err := ParseReduction("orbit"); err == nil {
		t.Error(`ParseReduction("orbit") accepted an unknown mode`)
	}
}
