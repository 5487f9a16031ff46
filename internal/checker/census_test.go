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
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// naiveCensus recomputes every state's Procs, Inputs and Conc from the
// configuration records alone, with one map update per occurrence — the code
// the walk ran per node before it counted in integers.
func naiveCensus(x *Exploration) map[string]*StateInfo {
	states := make(map[string]*StateInfo)
	for i := range x.Configs {
		rec := &x.Configs[i]
		for p, idx := range rec.StateIdx {
			key := x.StateKeyAt(idx)
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
					si.Conc[x.StateKeyAt(other)] = struct{}{}
				}
			}
		}
	}
	return states
}

// checkCensus holds x.States to the naive recomputation.
func checkCensus(t *testing.T, x *Exploration) {
	t.Helper()
	want := naiveCensus(x)
	if len(x.States) != len(want) {
		t.Fatalf("census holds %d states, the configuration records hold %d", len(x.States), len(want))
	}
	for key, w := range want {
		got := x.States[key]
		if got == nil {
			t.Fatalf("state %s occurs in a configuration record but not in the census", key)
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
// and Sample included, which the records cannot recompute. The reference
// has no reductions, so the last two take the canonicalizing case unreduced.
func TestCensusAgainstNaiveOracle(t *testing.T) {
	cases := append(diffCases(),
		diffCase{"fullexchange-mf1-both", protocols.FullExchange{Procs: 3}, Options{MaxFailures: 1, Reduction: ReduceBoth, MaxNodes: 6000}})
	for _, tc := range cases {
		for _, maxNodes := range []int{tc.opts.MaxNodes, 100} {
			cut := func(x *Exploration, err error) *Exploration {
				var be *BudgetError
				if x == nil || (err != nil && !errors.As(err, &be)) || (maxNodes != 0 && x.Status != StatusExhausted) {
					t.Fatalf("%s: exploration %v, err %v; want the walk cut at %d nodes", tc.name, x, err, maxNodes)
				}
				return x
			}
			opts := tc.opts
			opts.MaxNodes = maxNodes
			x := cut(Explore(tc.proto, opts))
			plain := x
			if opts.Reduction != ReduceNone {
				opts.Reduction = ReduceNone
				plain = cut(Explore(tc.proto, opts))
			}
			ref := cut(refExplore(context.Background(), tc.proto, opts))
			name := fmt.Sprintf("%s/%%s/max%d", tc.name, maxNodes)
			t.Run(fmt.Sprintf(name, "fingerprint"), func(t *testing.T) { checkCensus(t, x) })
			t.Run(fmt.Sprintf(name, "strings"), func(t *testing.T) { checkCensus(t, ref) })
			t.Run(fmt.Sprintf(name, "verified"), func(t *testing.T) {
				if want, got := exploreDigest(ref), exploreDigest(plain); got != want {
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
	x, err := Explore(protocols.Chain{Procs: n}, Options{MaxFailures: 0, Inputs: [][]sim.Bit{inputs}, MaxNodes: 1000})
	var be *BudgetError
	if x == nil || !errors.As(err, &be) {
		t.Fatalf("exploration %v, err %v; want the budget cut", x, err)
	}
	checkCensus(t, x)
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

// TestCensusEBarGolden pins what the configuration records cannot
// recompute — SeenEmptyBuffer, read through EBarStates — and, by its hash,
// the whole exploreDigest of the five explorations E7 analyzes, against a
// golden file generated by running the commit before the census became
// bitsets. Regenerate an intended change with
// `go test ./internal/checker -run CensusEBarGolden -update`.
func TestCensusEBarGolden(t *testing.T) {
	cells := []struct {
		name    string
		proto   sim.Protocol
		maxFail int
	}{
		{"tree-mf2", protocols.Tree{Procs: 3}, 2},
		{"ackcommit-mf2", protocols.AckCommit{Procs: 3}, 2},
		{"perverse-mf0", protocols.Perverse{}, 0},
		{"star-mf2", protocols.Star{Procs: 3}, 2},
		{"fullexchange-mf1", protocols.FullExchange{Procs: 3}, 1},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "fullexchange-mf1" && testing.Short() {
				t.Skip("a 705 904-node walk and its digest take seconds")
			}
			x, err := Explore(c.proto, Options{MaxFailures: c.maxFail})
			if err != nil {
				t.Fatal(err)
			}
			ebar := x.EBarStates()
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d nodes, %d states, %d E-bar, exploration sha256 %x\n",
				x.NodeCount, len(x.States), len(ebar), sha256.Sum256([]byte(exploreDigest(x))))
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
// bit set: record (carving its ids, the ConfigRecord, censusAdd) allocates
// nothing but slab chunks and the doubling of Configs.
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
			nodes = append(nodes, &node{cfg: cfg, ledger: updateLedger(nd.ledger, cfg), inputs: nd.inputs, vecIdx: nd.vecIdx})
		}
	}
	nodes = nodes[:accepted]
	accept := func() {
		for _, nd := range nodes {
			e.record(nd)
		}
	}
	// AllocsPerRun's own warm-up call is the pass that numbers states and sets bits.
	perNode := testing.AllocsPerRun(1, accept) / accepted
	t.Logf("%.4f allocations per accepted node over %d states", perNode, len(e.census))
	if perNode >= 0.05 {
		t.Errorf("accepting a node on a warm explorer allocates %.4f times, want below 0.05", perNode)
	}
	if len(e.x.Configs) != 2*accepted || len(e.census) < 50 {
		t.Fatalf("recorded %d configurations over %d states; the corpus did not reach the census", len(e.x.Configs), len(e.census))
	}
}
