package checker

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// naiveCensus recomputes every state's Procs, Inputs and Conc from the
// admission records alone, with one map update per occurrence — the code
// the walk ran per node before it counted in integers.
func naiveCensus(x *Exploration, log []admission) map[string]*StateInfo {
	states := make(map[string]*StateInfo)
	for _, rec := range log {
		for p, idx := range rec.StateIdx {
			key := x.stateKeys[idx]
			si := states[key]
			if si == nil {
				si = &StateInfo{
					Key:    key,
					Procs:  make(map[sim.ProcID]struct{}),
					Inputs: make(map[string]struct{}),
					Conc:   make(map[string]struct{}),
				}
				states[key] = si
			}
			si.Procs[sim.ProcID(p)] = struct{}{}
			si.Inputs[rec.InputsVec] = struct{}{}
			for q, other := range rec.StateIdx {
				if q != p {
					si.Conc[x.stateKeys[other]] = struct{}{}
				}
			}
		}
	}
	return states
}

// checkCensus holds a walk's States to the naive recomputation from its
// admission records.
func checkCensus(t *testing.T, run walked) {
	t.Helper()
	x, want := run.x, naiveCensus(run.x, run.log)
	if len(x.States) != len(want) {
		t.Fatalf("census holds %d states, the admission records hold %d", len(x.States), len(want))
	}
	for key, w := range want {
		got := x.States[key]
		if got == nil {
			t.Fatalf("state %s occurs in an admission record but not in the census", key)
		}
		if got.Key != key || got.Sample == nil || got.Sample.Key() != key {
			t.Errorf("state %s: census entry is keyed %q with sample %v", key, got.Key, got.Sample)
		}
		if !reflect.DeepEqual(got.Procs, w.Procs) {
			t.Errorf("state %s: Procs = %v, want %v", key, got.Procs, w.Procs)
		}
		if !reflect.DeepEqual(got.Inputs, w.Inputs) {
			t.Errorf("state %s: Inputs = %v, want %v", key, sortedSet(got.Inputs), sortedSet(w.Inputs))
		}
		if !reflect.DeepEqual(got.Conc, w.Conc) {
			t.Errorf("state %s: Conc = %v, want %v", key, sortedSet(got.Conc), sortedSet(w.Conc))
		}
	}
}

// TestCensusAgainstNaiveOracle checks the census of every differential case
// — as the case is given (two complete, six cut at 6000 nodes) and cut at
// 100 nodes, inside every space. One canonicalizing case rides along: under
// symmetry and elision a successor can be materialized, interned, and then
// lose admission to a sibling with the same handle, and its states must not
// reach the census or the public keys. Each case and cut is walked once by
// the engine and once by the reference, and three checks (named from when
// there were three engines) share the walks: "fingerprint" holds the
// engine's census to the naive recomputation, "strings" the reference
// walk's, and "verified" the engine's to the reference's — SeenEmptyBuffer
// and Sample included, which the admission records cannot recompute. The
// reference has no reductions, so the last two take the canonicalizing case
// unreduced.
func TestCensusAgainstNaiveOracle(t *testing.T) {
	cases := append(diffCases(),
		diffCase{"fullexchange-mf1-both", protocols.FullExchange{Procs: 3}, Options{MaxFailures: 1, Reduction: ReduceBoth, MaxNodes: 6000}})
	for _, tc := range cases {
		for _, maxNodes := range []int{tc.opts.MaxNodes, 100} {
			walk := func(explore func(context.Context, sim.Protocol, Options) (*Exploration, error), opts Options) walked {
				var w walked
				var err error
				w.x, err = explore(context.Background(), tc.proto, observing(opts, &w.log))
				var be *BudgetError
				if w.x == nil || (err != nil && !errors.As(err, &be)) || (maxNodes != 0 && w.x.Status != StatusExhausted) {
					t.Fatalf("%s: exploration %v, err %v; want the walk cut at %d nodes", tc.name, w.x, err, maxNodes)
				}
				return w
			}
			opts := tc.opts
			opts.MaxNodes = maxNodes
			x := walk(ExploreContext, opts)
			plain := x
			if opts.Reduction != ReduceNone {
				opts.Reduction = ReduceNone
				plain = walk(ExploreContext, opts)
			}
			ref := walk(func(ctx context.Context, proto sim.Protocol, opts Options) (*Exploration, error) {
				return refExplore(ctx, proto, nil, opts)
			}, opts)
			name := fmt.Sprintf("%s/%%s/max%d", tc.name, maxNodes)
			t.Run(fmt.Sprintf(name, "fingerprint"), func(t *testing.T) { checkCensus(t, x) })
			t.Run(fmt.Sprintf(name, "strings"), func(t *testing.T) { checkCensus(t, ref) })
			t.Run(fmt.Sprintf(name, "verified"), func(t *testing.T) {
				if want, got := ref.digest(), plain.digest(); got != want {
					t.Errorf("census diverges from the reference walk's:\n%s", firstDiff(want, got))
				}
			})
		}
	}
}

// TestCensusBeyondOneWord walks the first thousand configurations of a
// 70-processor chain (its failure-free space is exponential in N): the
// processor bitset of the last processor's states needs a second machine
// word, and the census must hold it.
func TestCensusBeyondOneWord(t *testing.T) {
	const n = 70
	inputs := make([]sim.Bit, n)
	for i := range inputs {
		inputs[i] = sim.One
	}
	var log []admission
	x, err := Explore(protocols.Chain{Procs: n}, observing(Options{MaxFailures: 0, Inputs: [][]sim.Bit{inputs}, MaxNodes: 1000}, &log))
	var be *BudgetError
	if x == nil || !errors.As(err, &be) {
		t.Fatalf("exploration %v, err %v; want the budget cut", x, err)
	}
	checkCensus(t, walked{x, log})
	last := false
	for _, si := range x.States {
		if _, ok := si.Procs[n-1]; ok {
			last = true
			if len(si.Procs) != 1 {
				t.Errorf("state %s of p%d is also occupied by %v", si.Key, n-1, si.Procs)
			}
		}
	}
	if !last {
		t.Fatalf("no state of the %d states in %d configurations is occupied by p%d", len(x.States), x.NodeCount, n-1)
	}
}

// e7Cells are the five complete explorations E7 analyzes; the last,
// fullexchange(3) mf1, is 705 904 nodes.
func e7Cells() []diffCase {
	return []diffCase{
		{"tree-mf2", protocols.Tree{Procs: 3}, Options{MaxFailures: 2}},
		{"ackcommit-mf2", protocols.AckCommit{Procs: 3}, Options{MaxFailures: 2}},
		{"perverse-mf0", protocols.Perverse{}, Options{MaxFailures: 0}},
		{"star-mf2", protocols.Star{Procs: 3}, Options{MaxFailures: 2}},
		{"fullexchange-mf1", protocols.FullExchange{Procs: 3}, Options{MaxFailures: 1}},
	}
}

// TestCensusEBarGolden pins what the admission records cannot
// recompute — SeenEmptyBuffer, read through EBarStates — and, by its hash,
// the whole exploreDigest of the five explorations E7 analyzes, against a
// golden file generated by running the commit before the census became
// bitsets. Regenerate an intended change with
// `go test ./internal/checker -run CensusEBarGolden -update`.
func TestCensusEBarGolden(t *testing.T) {
	for _, c := range e7Cells() {
		t.Run(c.name, func(t *testing.T) {
			if c.opts.MaxFailures == 1 && testing.Short() {
				t.Skip("a 705 904-node walk and its digest take seconds")
			}
			var log []admission
			x, err := Explore(c.proto, observing(c.opts, &log))
			if err != nil {
				t.Fatal(err)
			}
			ebar := x.EBarStates()
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d nodes, %d states, %d E-bar, exploration sha256 %x\n",
				x.NodeCount, len(x.States), len(ebar), sha256.Sum256([]byte(exploreDigest(x, log))))
			for _, k := range ebar {
				fmt.Fprintln(&sb, k)
			}
			path := filepath.Join("testdata", "ebar_"+c.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create it): %v", err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("E-bar states diverged from %s:\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// TestAllocsRecordCensus pins the per-node cost of accepting a
// configuration once the walk is warm — every state numbered, every census
// bit set, every (state, position, decision) triple listed: record (the
// state ids in the explorer's one slice, censusAdd) allocates nothing.
func TestAllocsRecordCensus(t *testing.T) {
	const accepted = 10_000
	proto := protocols.Tree{Procs: 3}
	e, err := newExplorer(proto, nil, Options{MaxFailures: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A breadth-first corpus of configurations with their fingerprint caches
	// warm, as admit hands them to record; duplicates are as good as distinct
	// ones to record.
	var nodes []*node
	for i, inputs := range sim.AllInputs(e.n) {
		e.vecs = append(e.vecs, sim.InputsString(inputs))
		nodes = append(nodes, &node{cfg: sim.NewConfig(proto, inputs), ledger: make([]sim.Decision, e.n), inputs: inputs, vecIdx: int32(i)})
	}
	for head := 0; len(nodes) < accepted; head++ {
		nd := nodes[head]
		nd.cfg.Fingerprint()
		events := sim.Enabled(nd.cfg)
		for p := 0; p < e.n; p++ {
			if !nd.cfg.Faulty(sim.ProcID(p)) {
				events = append(events, sim.Event{Proc: sim.ProcID(p), Type: sim.Fail})
			}
		}
		for _, ev := range events {
			cfg, _, err := sim.Apply(proto, nd.cfg, ev)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, &node{cfg: cfg, ledger: ledgerAfter(nd.ledger, cfg), inputs: nd.inputs, vecIdx: nd.vecIdx})
		}
	}
	nodes = nodes[:accepted]
	accept := func() {
		for _, nd := range nodes {
			e.record(nd)
		}
	}
	// AllocsPerRun's own warm-up call is the pass that numbers states and sets bits.
	if allocs := testing.AllocsPerRun(1, accept); allocs != 0 {
		t.Errorf("accepting %d nodes on a warm explorer allocates %.0f times, want 0", accepted, allocs)
	}
	if e.x.NodeCount != 2*accepted || len(e.census) < 50 || len(e.x.occupancies) == 0 {
		t.Fatalf("recorded %d configurations over %d states and %d occupancies; the corpus did not reach the census",
			e.x.NodeCount, len(e.census), len(e.x.occupancies))
	}
}

// corollary6Scan is Corollary 6 as the walk once checked it, a scan of every
// admission record: after any decision in the ledger (the first by
// processor), each processor not in a failed state must occupy a state whose
// bias matches it. It reports one violation per (record, processor),
// uncapped.
func corollary6Scan(x *Exploration, recs []admission, committable map[string]bool) []taxonomy.Violation {
	var out []taxonomy.Violation
	for _, rec := range recs {
		decided := sim.NoDecision
		for _, d := range rec.Ledger {
			if d != sim.NoDecision {
				decided = d
				break
			}
		}
		if decided == sim.NoDecision {
			continue
		}
		for p, idx := range rec.StateIdx {
			key := x.stateKeys[idx]
			if x.States[key].Sample.Kind() == sim.Failed {
				continue
			}
			if committable[key] != (decided == sim.Commit) {
				out = append(out, taxonomy.Violation{
					Kind: "corollary6",
					Detail: fmt.Sprintf("after a %s decision, nonfaulty %s occupies %s with bias committable=%v",
						decided, sim.ProcID(p), key, committable[key]),
				})
			}
		}
	}
	return out
}

// TestCensusCorollary6AgainstConfigScan holds Safety's Corollary 6 list,
// read off the census, to the scan of every admission record with repeated
// (state, position, decision) triples dropped, on the five E7 cells and on
// the differential cases, budget-cut ones included.
func TestCensusCorollary6AgainstConfigScan(t *testing.T) {
	violating := 0
	for _, tc := range append(e7Cells(), diffCases()...) {
		name := fmt.Sprintf("%s/max%d", tc.name, tc.opts.MaxNodes)
		t.Run(name, func(t *testing.T) {
			if tc.opts.MaxFailures == 1 && tc.opts.MaxNodes == 0 && testing.Short() {
				t.Skip("a 705 904-node walk takes seconds")
			}
			var log []admission
			x, err := Explore(tc.proto, observing(tc.opts, &log))
			if x == nil {
				t.Fatalf("nil exploration (err=%v)", err)
			}
			rep := x.Safety()
			var want []taxonomy.Violation
			seen := map[string]bool{}
			for _, v := range corollary6Scan(x, log, rep.Committable) {
				if !seen[v.Detail] && len(want) < 20 {
					seen[v.Detail] = true
					want = append(want, v)
				}
			}
			if !reflect.DeepEqual(rep.Corollary6, want) {
				t.Errorf("Corollary 6 from the census:\n%v\nfrom the admission scan:\n%v", rep.Corollary6, want)
			}
			if len(want) > 0 {
				violating++
			}
		})
	}
	if violating == 0 {
		t.Error("no cell violates Corollary 6; the comparison proves nothing")
	}
}

// exactCensus renders, sorted, everything the safe-state analysis reads
// from an exploration: each state's Procs, Inputs, Conc and decision, and
// SeenEmptyBuffer where EBarStates reads it (Receiving states); the set of
// (state, position, decision) occupancies; and the Safety report —
// TotalStates, Unsafe, Committable, and every Corollary 6 triple, uncapped,
// as a set.
func exactCensus(x *Exploration) string {
	var lines []string
	for key, si := range x.States {
		var procs []sim.ProcID
		for p := range si.Procs {
			procs = append(procs, p)
		}
		slices.Sort(procs)
		line := fmt.Sprintf("state %s procs=%v inputs=%v conc=%v decision=%v", key,
			procs, sortedSet(si.Inputs), sortedSet(si.Conc), si.Decision())
		if si.Sample.Kind() == sim.Receiving {
			line += fmt.Sprintf(" seenEmpty=%v", si.SeenEmptyBuffer)
		}
		lines = append(lines, line)
	}
	for _, o := range x.occupancies {
		lines = append(lines, fmt.Sprintf("occupancy %s %v %v", x.stateKeys[o.state], o.pos, o.decided))
	}
	rep := x.Safety()
	for key, c := range rep.Committable {
		lines = append(lines, fmt.Sprintf("committable %s %v", key, c))
	}
	for _, u := range rep.Unsafe {
		lines = append(lines, fmt.Sprintf("unsafe %s: %s", u.Key, u.Reason))
	}
	for _, v := range x.checkCorollary6(rep.Committable, 0) {
		lines = append(lines, "corollary6 "+v.Detail)
	}
	slices.Sort(lines)
	return fmt.Sprintf("%d operational states, %d unsafe\n%s", rep.TotalStates, len(rep.Unsafe), strings.Join(lines, "\n"))
}

// TestCensusElidedIsExact: dead-letter elision merges configurations that
// differ only in messages to failed or halted processors, a bisimulation
// quotient that touches no local state, with the inputs and the decision
// ledger in every handle. So a complete ReduceElide walk must publish the
// unreduced walk's census exactly (exactCensus) and a Safety report that is
// not Partial, on the five E7 cells, the complete reduction-differential
// cases, tree-st(3) mf2, star(4) mf0 and three omission cells — with fewer
// nodes wherever a processor fails or halts with mail pending. The teeth:
// ample sets drop interleavings, and the same comparison must fail on
// fullexchange(3) mf1, where ample reports 90 unsafe states of 96.
func TestCensusElidedIsExact(t *testing.T) {
	cells := e7Cells()
	for _, tc := range reductionCases() {
		if !slices.ContainsFunc(cells, func(c diffCase) bool { return c.name == tc.name }) {
			cells = append(cells, diffCase{tc.name, tc.proto, tc.opts})
		}
	}
	cells = append(cells,
		diffCase{"tree-st-mf2", protocols.Tree{Procs: 3, ST: true}, Options{MaxFailures: 2}},
		diffCase{"star4-mf0", protocols.Star{Procs: 4}, Options{MaxFailures: 0}},
		diffCase{"haltingcommit-ob2-mobile1", protocols.HaltingCommit{Procs: 3}, Options{OmissionBudget: 2, MobileOmissions: 1}},
		diffCase{"star-ob1", protocols.Star{Procs: 3}, Options{OmissionBudget: 1}},
		diffCase{"ackcommit-mf1-ob1-mobile1", protocols.AckCommit{Procs: 3}, Options{MaxFailures: 1, OmissionBudget: 1, MobileOmissions: 1}},
	)
	walk := func(t *testing.T, tc diffCase, mode Reduction) *Exploration {
		opts := tc.opts
		opts.Reduction = mode
		x, err := Explore(tc.proto, opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return x
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "fullexchange-mf1" && testing.Short() {
				t.Skip("a 705 904-node walk takes seconds")
			}
			t.Parallel()
			full, elided := walk(t, tc, ReduceNone), walk(t, tc, ReduceElide)
			if got, want := exactCensus(elided), exactCensus(full); got != want {
				t.Errorf("elided census (%d nodes) differs from the unreduced one (%d nodes):\n%s",
					elided.NodeCount, full.NodeCount, firstDiff(want, got))
			}
			if elided.Safety().Partial {
				t.Error("a complete elided walk reports a partial safety analysis")
			}
			if elided.NodeCount > full.NodeCount {
				t.Errorf("elision grew the space: %d > %d nodes", elided.NodeCount, full.NodeCount)
			}
			t.Logf("%d nodes elided to %d", full.NodeCount, elided.NodeCount)
			if tc.name == "fullexchange-mf1" {
				if ample := walk(t, tc, ReduceAmple); exactCensus(ample) == exactCensus(full) {
					t.Error("the ample walk's census equals the unreduced one; the comparison has no teeth")
				}
			}
		})
	}
}

// TestCensusReducedSafetyIsPartial: a reduced walk other than ReduceElide
// admits a subset of the accessible configurations, so concurrency sets
// shrink and Safety misses unsafe states — star(3) mf2 under symmetry
// reports 16 of its 24, and fullexchange(3) mf1 under ample 90 of its 96
// although it keeps all 1 272 states. A complete reduced walk must
// therefore still report Partial.
func TestCensusReducedSafetyIsPartial(t *testing.T) {
	full, err := Explore(protocols.Star{Procs: 3}, Options{MaxFailures: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := full.Safety()
	if want.Partial {
		t.Fatal("the complete unreduced walk reports a partial safety analysis")
	}
	for _, mode := range []Reduction{ReduceAmple, ReduceSymmetry, ReduceBoth} {
		x, err := Explore(protocols.Star{Procs: 3}, Options{MaxFailures: 2, Reduction: mode})
		if err != nil {
			t.Fatal(err)
		}
		rep := x.Safety()
		if !rep.Partial {
			t.Errorf("%v: complete reduced walk reports %d unsafe states (the full space has %d) and Partial=false",
				mode, len(rep.Unsafe), len(want.Unsafe))
		}
		if mode == ReduceSymmetry && len(rep.Unsafe) >= len(want.Unsafe) {
			t.Errorf("%v: %d unsafe states, the full space %d; the walk no longer under-reports, revisit SafetyReport.Partial",
				mode, len(rep.Unsafe), len(want.Unsafe))
		}
	}
}

// TestCensusRetainsStatesNotNodes: once the walk has ended an Exploration
// is its census, O(states), and holds nothing per node. tree(3) mf2 is
// 103 366 nodes over 1 026 states; with one record per node it retained
// 11 MiB.
func TestCensusRetainsStatesNotNodes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x, err := Explore(protocols.Tree{Procs: 3}, Options{MaxFailures: 2})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d nodes over %d states retain %.2f MiB", x.NodeCount, len(x.States), float64(retained)/(1<<20))
	if retained > 4<<20 {
		t.Errorf("a complete tree(3) mf2 exploration retains %.2f MiB, want at most 4", float64(retained)/(1<<20))
	}
	runtime.KeepAlive(x)
}
