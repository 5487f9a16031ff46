package checker

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// admission is what the walk knew of one admitted node, as Options.observe
// hands it over: the ids of its local states, its decision ledger (what each
// processor has ever decided by this configuration), its input vector and
// whether it is terminal (quiescent).
type admission struct {
	StateIdx  []int32
	Ledger    []sim.Decision
	InputsVec string
	Terminal  bool
}

// observing returns opts with an observer that appends every admitted node's
// record to *log, in admission order. The ledger is aliased, not copied:
// nothing mutates a ledger once updateLedger has built it.
func observing(opts Options, log *[]admission) Options {
	opts.observe = func(ids []int32, nd *node) {
		*log = append(*log, admission{slices.Clone(ids), nd.ledger, sim.InputsString(nd.inputs), nd.cfg.Quiescent()})
	}
	return opts
}

// exploreDigest renders every observable field of an Exploration, and the
// admission records its walk reported, into one canonical string, so
// "byte-identical results" is literally a string comparison. Interned state
// keys and admissions are emitted in discovery order; the aggregate States
// map is emitted sorted by key with its sets sorted, since map-valued
// aggregates carry no order of their own.
func exploreDigest(x *Exploration, log []admission) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes=%d status=%v frontier=%d terminals=%d\n",
		x.NodeCount, x.Status, x.FrontierSize, x.Terminals)
	for i, k := range x.stateKeys {
		fmt.Fprintf(&sb, "S%d %s\n", i, k)
	}
	for _, c := range log {
		fmt.Fprintf(&sb, "C %v %v %s %v\n", c.StateIdx, c.Ledger, c.InputsVec, c.Terminal)
	}
	keys := make([]string, 0, len(x.States))
	for k := range x.States {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		si := x.States[k]
		procs := make([]int, 0, len(si.Procs))
		for p := range si.Procs {
			procs = append(procs, int(p))
		}
		sort.Ints(procs)
		fmt.Fprintf(&sb, "I %s sample=%s empty=%v procs=%v inputs=%v conc=%v\n",
			k, si.Sample.Key(), si.SeenEmptyBuffer, procs,
			sortedSet(si.Inputs), sortedSet(si.Conc))
	}
	for _, v := range x.Violations {
		fmt.Fprintf(&sb, "V %s %s\n", v.Kind, v.Detail)
	}
	for _, s := range x.FirstTraceLines() {
		fmt.Fprintf(&sb, "T %s\n", s)
	}
	return sb.String()
}

func sortedSet(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// diffCase is one protocol/options pair on which the engine is held to the
// reference walk. Budget-capped cases deliberately stop mid-space: the
// partial result of a budget-exhausted exploration is part of the
// determinism contract.
type diffCase struct {
	name  string
	proto sim.Protocol
	opts  Options
}

func diffCases() []diffCase {
	return []diffCase{
		// Complete explorations: the whole reachable space, so the full
		// census (states, concurrency sets, terminals) is diffed.
		{"tree-mf0", protocols.Tree{Procs: 3}, Options{MaxFailures: 0}},
		{"fullexchange-mf0", protocols.FullExchange{Procs: 3}, Options{MaxFailures: 0}},
		// Budget-capped explorations: failure injection blows up the
		// space, so these exercise the deterministic mid-walk budget
		// stop (exact NodeCount, frontier snapshot, violation prefix).
		{"tree-mf2", protocols.Tree{Procs: 3}, Options{MaxFailures: 2, MaxNodes: 6000}},
		{"star-mf2", protocols.Star{Procs: 3}, Options{MaxFailures: 2, MaxNodes: 6000}},
		{"chain-mf2", protocols.Chain{Procs: 3}, Options{MaxFailures: 2, MaxNodes: 6000}},
		{"perverse-mf1", protocols.Perverse{}, Options{MaxFailures: 1, MaxNodes: 6000}},
		{"ackcommit-mf2", protocols.AckCommit{Procs: 3}, Options{MaxFailures: 2, MaxNodes: 6000}},
		{"haltingcommit-mf2", protocols.HaltingCommit{Procs: 3}, Options{MaxFailures: 2, MaxNodes: 6000}},
	}
}

// walked is one exploration and the admission records its walk reported.
type walked struct {
	x   *Exploration
	log []admission
}

func (w walked) digest() string { return exploreDigest(w.x, w.log) }

// divergence checks one case against the problem on the engine and on the
// reference walk (refExplore) and describes where the engine fails to
// reproduce the reference byte for byte — node counts, interned state keys,
// admission records, the aggregate state census, violations in order,
// FirstTrace, and the error — or returns "" when it does.
func divergence(ctx context.Context, tc diffCase, prob taxonomy.Problem) (engine, ref walked, diff string) {
	opts := tc.opts
	opts.TrackTraces = true
	var refErr, err error
	ref.x, refErr = refExplore(ctx, tc.proto, []taxonomy.Problem{prob}, observing(opts, &ref.log))
	engine.x, err = CheckContext(ctx, tc.proto, prob, observing(opts, &engine.log))
	switch {
	case ref.x == nil || engine.x == nil:
		diff = fmt.Sprintf("nil exploration: engine %v (err=%v), reference %v (err=%v)", engine.x, err, ref.x, refErr)
	case fmt.Sprint(err) != fmt.Sprint(refErr):
		diff = fmt.Sprintf("err = %v, reference err = %v", err, refErr)
	case engine.digest() != ref.digest():
		diff = "exploration diverges from the reference walk:\n" + firstDiff(ref.digest(), engine.digest())
	}
	return engine, ref, diff
}

// diffReference fails the test on any divergence of the engine from the
// reference walk.
func diffReference(ctx context.Context, t *testing.T, tc diffCase, prob taxonomy.Problem) *Exploration {
	t.Helper()
	engine, _, diff := divergence(ctx, tc, prob)
	if diff != "" {
		t.Fatal(diff)
	}
	return engine.x
}

// diffAll runs diffReference on every case, one subtest each.
func diffAll(t *testing.T, cases []diffCase, prob taxonomy.Problem) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { diffReference(context.Background(), t, tc, prob) })
	}
}

// TestExploreDifferential asserts that exploring every library protocol
// produces the reference walk's result byte for byte.
func TestExploreDifferential(t *testing.T) {
	diffAll(t, diffCases(), problem(taxonomy.WT, taxonomy.TC))
}

// grudgingRule is a decision rule no library protocol obeys: it forbids
// commit outright, and abort once a failure has been seen. The library
// protocols all keep unanimity, so without it the branch of the fast path
// that refuses to vouch for a forbidden decision would never run; and
// because its verdict turns on failureSeen in the direction that loses
// violations if misread (a failure missed is a forbidden abort permitted),
// it pins the expansion's crash- and omission-bearing reading of it.
type grudgingRule struct{}

func (grudgingRule) Name() string { return "grudging" }

func (grudgingRule) Permits(d sim.Decision, _ []sim.Bit, failureSeen bool) bool {
	return d == sim.Abort && !failureSeen
}

func (grudgingRule) Determined([]sim.Bit) (sim.Decision, bool) { return sim.NoDecision, false }

// TestExploreDifferentialRuleViolations runs the engine against a rule
// that is broken on many decision edges, most of them leading to
// configurations already visited — the edges the engine predicts. The
// reference walk materializes every edge and is the oracle:
// "rule" violations in order (and their cap), FirstTrace, and the node at
// which StopAtFirstViolation cuts the walk must agree byte for byte, with
// crashes and with an omission budget.
func TestExploreDifferentialRuleViolations(t *testing.T) {
	stop := func(o Options) Options { o.StopAtFirstViolation = true; return o }
	mf0, mf2 := Options{MaxFailures: 0}, Options{MaxFailures: 2, MaxNodes: 6000}
	ob2 := Options{MaxFailures: 0, OmissionBudget: 2, MobileOmissions: 1}
	mf1ob1 := Options{MaxFailures: 1, OmissionBudget: 1, MaxNodes: 6000}
	cases := []diffCase{
		{"tree-mf0", protocols.Tree{Procs: 3}, mf0},
		{"tree-mf0-stop", protocols.Tree{Procs: 3}, stop(mf0)},
		{"star-mf2", protocols.Star{Procs: 3}, mf2},
		{"star-mf2-stop", protocols.Star{Procs: 3}, stop(mf2)},
		{"haltingcommit-mf2", protocols.HaltingCommit{Procs: 3}, mf2},
		{"tree-ob2-mobile1", protocols.Tree{Procs: 3}, ob2},
		{"tree-ob2-mobile1-stop", protocols.Tree{Procs: 3}, stop(ob2)},
		{"ackcommit-mf1-ob1", protocols.AckCommit{Procs: 3}, mf1ob1},
	}
	diffAll(t, cases, taxonomy.Problem{Rule: grudgingRule{}, Termination: taxonomy.WT, Consistency: taxonomy.TC})
}

// TestExploreOmissionDifferential asserts the same contract for
// omission-faulted explorations — verdict, node counts, and the full state
// census — both for complete explorations and for budget-capped partial
// ones. These rows walk the full graph; the ample modes under a budget
// (DESIGN.md §8) are held to it by TestReductionOmissionDifferential.
func TestExploreOmissionDifferential(t *testing.T) {
	cases := []diffCase{
		// Complete: the whole omission-augmented space.
		{"tree-ob2", protocols.Tree{Procs: 3}, Options{MaxFailures: 0, OmissionBudget: 2}},
		{"tree-ob2-mobile1", protocols.Tree{Procs: 3}, Options{MaxFailures: 0, OmissionBudget: 2, MobileOmissions: 1}},
		{"ackcommit-mf1-ob1", protocols.AckCommit{Procs: 3}, Options{MaxFailures: 1, OmissionBudget: 1}},
		// Budget-partial: crash + omission injection blows up the space;
		// the deterministic node-budget stop is part of the contract.
		{"star-mf2-ob2-capped", protocols.Star{Procs: 3}, Options{MaxFailures: 2, OmissionBudget: 2, MobileOmissions: 1, MaxNodes: 6000}},
	}
	diffAll(t, cases, problem(taxonomy.WT, taxonomy.TC))
}

// TestExploreDifferentialCancelled asserts that a cancelled context cuts
// the engine's walk where it cuts the reference's, at the first dequeue:
// identical partial results — Status, NodeCount, FrontierSize, and the full
// digest.
func TestExploreDifferentialCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tc := diffCase{"star-mf2", protocols.Star{Procs: 3}, Options{MaxFailures: 2}}
	x := diffReference(ctx, t, tc, problem(taxonomy.WT, taxonomy.TC))
	if x.Status != StatusInterrupted || x.NodeCount < 1 || x.FrontierSize < 1 {
		t.Fatalf("cancelled exploration: status %v, %d nodes, %d frontier; want interrupted with its partial snapshot",
			x.Status, x.NodeCount, x.FrontierSize)
	}
}

// firstDiff locates the first line where two digests diverge, for a readable
// failure instead of two multi-megabyte strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("digest lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestCheckAllDifferential asserts that one walk judged against k problems
// returns, per problem, what a solo Check of that problem returns — the
// whole exploreDigest, so violations in order, FirstTrace, census and
// status — on complete walks and on budget-cut ones. star(3) breaks total
// consistency, so its WT-TC judge must report the solo run's TC violations
// beside three judges that find nothing (breadth-first order reaches them
// past 6000 nodes, hence the second cut); tree-st(3) solves all of its three.
func TestCheckAllDifferential(t *testing.T) {
	cases := []struct {
		name     string
		proto    sim.Protocol
		cuts     []int // MaxNodes; 0 walks the whole space
		problems []taxonomy.Problem
	}{
		{"star", protocols.Star{Procs: 3}, []int{0, 6000, 36_000}, []taxonomy.Problem{
			problem(taxonomy.HT, taxonomy.IC), problem(taxonomy.ST, taxonomy.IC),
			problem(taxonomy.WT, taxonomy.IC), problem(taxonomy.WT, taxonomy.TC),
		}},
		{"tree-st", protocols.Tree{Procs: 3, ST: true}, []int{0, 6000}, []taxonomy.Problem{
			problem(taxonomy.ST, taxonomy.TC), problem(taxonomy.ST, taxonomy.IC), problem(taxonomy.WT, taxonomy.TC),
		}},
	}
	for _, tc := range cases {
		for _, maxNodes := range tc.cuts {
			t.Run(fmt.Sprintf("%s/max%d", tc.name, maxNodes), func(t *testing.T) {
				if testing.Short() && maxNodes != 6000 {
					t.Skip("k + 1 walks of most of the space take seconds")
				}
				opts := Options{MaxFailures: 2, MaxNodes: maxNodes, TrackTraces: true}
				var log []admission
				xs, err := CheckAll(context.Background(), tc.proto, tc.problems, observing(opts, &log))
				if len(xs) != len(tc.problems) {
					t.Fatalf("CheckAll returned %d explorations for %d problems (err=%v)", len(xs), len(tc.problems), err)
				}
				for i, p := range tc.problems {
					var soloLog []admission
					solo, soloErr := CheckContext(context.Background(), tc.proto, p, observing(opts, &soloLog))
					if fmt.Sprint(err) != fmt.Sprint(soloErr) {
						t.Errorf("%s: err = %v, solo err = %v", p.Name(), err, soloErr)
					}
					if want, got := exploreDigest(solo, soloLog), exploreDigest(xs[i], log); got != want {
						t.Errorf("%s: judged beside the others it diverges from its solo check:\n%s", p.Name(), firstDiff(want, got))
					}
					if p.Name() == "WT-TC" && tc.name == "star" && maxNodes != 6000 && (len(xs[i].Violations) == 0 || len(xs[i].FirstTrace) == 0) {
						t.Errorf("star(3) against WT-TC: %d violations, %d trace lines; want the TC violations and their trace",
							len(xs[i].Violations), len(xs[i].FirstTrace))
					}
				}
			})
		}
	}
}

// TestCheckAllDifferentialRejects pins the two argument errors: no problem
// at all, and StopAtFirstViolation — which cuts the walk at one problem's
// first violation — with more than one.
func TestCheckAllDifferentialRejects(t *testing.T) {
	two := []taxonomy.Problem{problem(taxonomy.WT, taxonomy.IC), problem(taxonomy.WT, taxonomy.TC)}
	if xs, err := CheckAll(context.Background(), protocols.Star{Procs: 3}, two, Options{StopAtFirstViolation: true}); xs != nil || err == nil {
		t.Errorf("two problems with StopAtFirstViolation: %d explorations, err %v; want an error", len(xs), err)
	}
	if xs, err := CheckAll(context.Background(), protocols.Star{Procs: 3}, nil, Options{}); xs != nil || err == nil {
		t.Errorf("no problems: %d explorations, err %v; want an error", len(xs), err)
	}
}
