package scheme

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/pattern"
	"repro/internal/protocols"
	"repro/internal/sim"
)

func allOnes(n int) []sim.Bit {
	v := make([]sim.Bit, n)
	for i := range v {
		v[i] = sim.One
	}
	return v
}

func TestChainHasUniquePattern(t *testing.T) {
	// "The pattern illustrated is the only failure-free pattern of the
	// protocol" (Theorem 13's discussion of Figure 3) — and because
	// patterns abstract away message contents, every input vector yields
	// the same triples: the whole scheme is a single pattern.
	s, err := Of(protocols.Chain{Procs: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("scheme of chain(4) has %d patterns, want 1:\n%v", s.Len(), s.Keys())
	}
	// The pattern: p1,p2,p3 send inputs to p0; decision chain
	// p0→p1→p2→p3 with each link after the previous.
	p := s.Patterns()[0]
	if p.Size() != 6 {
		t.Fatalf("pattern size = %d, want 6", p.Size())
	}
	d1 := sim.MsgID{From: 0, To: 1, Seq: 1}
	d2 := sim.MsgID{From: 1, To: 2, Seq: 1}
	d3 := sim.MsgID{From: 2, To: 3, Seq: 1}
	if !p.Less(d1, d2) || !p.Less(d2, d3) {
		t.Fatalf("decision chain ordering missing in %s", p.Key())
	}
	for i := 1; i <= 3; i++ {
		in := sim.MsgID{From: sim.ProcID(i), To: 0, Seq: 1}
		if !p.Has(in) {
			t.Fatalf("missing input message %s", in)
		}
		if !p.Less(in, d1) {
			t.Fatalf("input %s should precede the decision", in)
		}
	}
}

func TestTreeSchemeSize(t *testing.T) {
	// tree(3): the failure-free pattern is determined by which leaves
	// receive the bias (the starred rule skips 0-leaves) and whether
	// Phase 2 runs: full commit, bias to both (root had 0), bias to one
	// leaf, bias to the other, bias to neither.
	s, err := Of(protocols.Tree{Procs: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 {
		t.Fatalf("scheme of tree(3) has %d patterns, want 5:\n%v", s.Len(), s.Keys())
	}
}

func TestPerverseHasExactlyFourPatterns(t *testing.T) {
	// Figure 4: four failure-free communication patterns per input
	// vector, according to which of the dashed messages m1, m2, m3 are
	// sent: none, only m1, only m2, or all three.
	s, err := Enumerate(protocols.Perverse{}, allOnes(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("perverse all-ones enumeration has %d patterns, want 4:\n%v", s.Len(), s.Keys())
	}
	// In the all-ones (commit) flow p0 → p2 carries val (seq 1), ack
	// (seq 2), and then the dashed m3 (seq 3).
	m1 := sim.MsgID{From: 0, To: 3, Seq: 1}
	m2 := sim.MsgID{From: 1, To: 0, Seq: 2}
	m3 := sim.MsgID{From: 0, To: 2, Seq: 3}
	var combos []string
	for _, p := range s.Patterns() {
		has := func(m sim.MsgID) byte {
			if p.Has(m) {
				return '1'
			}
			return '0'
		}
		combo := string([]byte{has(m1), has(m2), has(m3)})
		combos = append(combos, combo)
		// m3 is sent only if both m1 and m2 are sent.
		if p.Has(m3) != (p.Has(m1) && p.Has(m2)) {
			t.Errorf("pattern violates the m3 rule: m1=%v m2=%v m3=%v",
				p.Has(m1), p.Has(m2), p.Has(m3))
		}
		if p.Has(m3) {
			if !p.Less(m1, m3) || !p.Less(m2, m3) {
				t.Error("m3 should causally follow m1 and m2")
			}
		}
	}
	want := map[string]bool{"000": true, "100": true, "010": true, "111": true}
	for _, c := range combos {
		if !want[c] {
			t.Errorf("unexpected dashed combination %q (want one of 000,100,010,111)", c)
		}
		delete(want, c)
	}
	if len(want) != 0 {
		t.Errorf("missing dashed combinations: %v (got %v)", want, combos)
	}
}

func TestForgetfulPerverseBreaksTheRules(t *testing.T) {
	// With p0 amnesic about m1, its fixed response to m2 produces a
	// pattern in which m3 appears without m1 — outside Figure 4's four
	// patterns, realizing the contradiction of Theorem 13.
	s, err := Enumerate(protocols.Perverse{ForgetfulP0: true}, allOnes(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m1 := sim.MsgID{From: 0, To: 3, Seq: 1}
	m2 := sim.MsgID{From: 1, To: 0, Seq: 2}
	m3 := sim.MsgID{From: 0, To: 2, Seq: 3}
	found := false
	for _, p := range s.Patterns() {
		if p.Has(m3) && p.Has(m2) && !p.Has(m1) {
			found = true
		}
	}
	if !found {
		t.Fatalf("forgetful variant should exhibit m3 without m1; got %d patterns", s.Len())
	}
}

func TestStarSchemeRelayRaces(t *testing.T) {
	// Participants relay the first decision message they receive — from
	// the coordinator or from another relay — so the star scheme contains
	// several patterns differing in relay causality.
	s, err := Of(protocols.Star{Procs: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() < 2 {
		t.Fatalf("scheme of star(3) has %d patterns, want ≥ 2 (relay races)", s.Len())
	}
}

func TestRandomRunPatternsBelongToScheme(t *testing.T) {
	protos := []sim.Protocol{
		protocols.Tree{Procs: 3},
		protocols.Chain{Procs: 4},
		protocols.Perverse{},
	}
	for _, proto := range protos {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			full, err := Of(proto, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 20; seed++ {
				inputs := sim.AllInputs(proto.N())[int(seed)%(1<<proto.N())]
				run, err := sim.RandomRun(proto, inputs, sim.RunnerOptions{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				p := pattern.FromRun(run)
				if !full.Contains(p) {
					t.Fatalf("seed %d inputs %v: run pattern not in scheme:\n%s",
						seed, inputs, p.Key())
				}
			}
		})
	}
}

func TestSetOperations(t *testing.T) {
	a, b := NewSet(), NewSet()
	p1 := pattern.New()
	p1.Add(sim.MsgID{From: 0, To: 1, Seq: 1})
	p2 := pattern.New()
	p2.Add(sim.MsgID{From: 1, To: 0, Seq: 1})

	if !a.Add(p1) {
		t.Fatal("first Add should report new")
	}
	if a.Add(p1) {
		t.Fatal("second Add of the same pattern should report existing")
	}
	b.Add(p1)
	b.Add(p2)
	if !a.SubsetOf(b) {
		t.Fatal("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Fatal("b ⊄ a expected")
	}
	if a.Equal(b) {
		t.Fatal("a ≠ b expected")
	}
	a.Union(b)
	if !a.Equal(b) {
		t.Fatal("after union a = b expected")
	}
	if len(a.Keys()) != 2 || len(a.Patterns()) != 2 {
		t.Fatal("expected two patterns after union")
	}
}

func TestCompareSchemes(t *testing.T) {
	// The amnesic tree variant has the same scheme as the tree — the
	// Corollary 11 fact, here via the comparison API.
	got, err := Compare(protocols.Tree{Procs: 3}, protocols.Tree{Procs: 3, ST: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != SchemesEqual {
		t.Fatalf("tree vs tree-st: %s, want equal", got)
	}
	// Chain and star exchange different message triples entirely.
	got, err = Compare(protocols.Chain{Procs: 3}, protocols.Star{Procs: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != SchemesIncomparable {
		t.Fatalf("chain vs star: %s, want incomparable", got)
	}
	// Mismatched sizes are rejected.
	if _, err := Compare(protocols.Chain{Procs: 3}, protocols.Chain{Procs: 4}, Options{}); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestCompareSetsDirections(t *testing.T) {
	small, err := Enumerate(protocols.Perverse{}, allOnes(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Of(protocols.Perverse{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := CompareSets(small, big); got != SchemeSubset {
		t.Fatalf("per-input set vs full scheme: %s, want subset", got)
	}
	if got := CompareSets(big, small); got != SchemeSuperset {
		t.Fatalf("full scheme vs per-input set: %s, want superset", got)
	}
	if got := CompareSets(big, big); got != SchemesEqual {
		t.Fatalf("self comparison: %s, want equal", got)
	}
	for _, c := range []Comparison{SchemesEqual, SchemeSubset, SchemeSuperset, SchemesIncomparable, Comparison(0)} {
		if c.String() == "" {
			t.Error("comparison should render")
		}
	}
}

func TestEnumerationBudget(t *testing.T) {
	_, err := Enumerate(protocols.Tree{Procs: 7}, allOnes(7), Options{MaxNodes: 10})
	var budget *BudgetError
	if !errorsAs(err, &budget) {
		t.Fatalf("expected BudgetError, got %v", err)
	}
	if budget.Nodes != 10 {
		t.Fatalf("budget = %d", budget.Nodes)
	}
}

// errorsAs is a tiny local wrapper to keep the test imports minimal.
func errorsAs(err error, target any) bool {
	return err != nil && errors.As(err, target)
}

// TestAllocsSchemePerNode pins what the enumerator still allocates per
// visited node on a warm Of(haltingcommit(4)), 54 322 nodes over 16 input
// vectors: a successor's changed buffers and sent message key inside sim,
// amortized growth of the visited table, the queue and the past slab, and
// each distinct pattern built and keyed once. Nodes, configurations and
// bitsets come off the free list. Measured: 2.4 allocations per node (27.2
// when every node carried map-based knowledge sets and patterns).
func TestAllocsSchemePerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("two haltingcommit(4) schemes take ~1 second")
	}
	proto := protocols.HaltingCommit{Procs: 4}
	if _, err := Of(proto, Options{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	en, err := OfContext(context.Background(), proto, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(after.Mallocs-before.Mallocs) / float64(en.Visited)
	t.Logf("%.2f allocations per node over %d nodes", got, en.Visited)
	if got > 3.5 {
		t.Errorf("Of allocates %.2f times per visited node, want at most 3.5", got)
	}
}
