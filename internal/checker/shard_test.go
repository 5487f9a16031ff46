package checker

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// widthCell is one walk of TestShardedWalkIsWidthIndependent: a protocol
// and options judged against problems (none for a plain Explore).
type widthCell struct {
	name     string
	proto    sim.Protocol
	problems []taxonomy.Problem
	opts     Options
}

func widthCells() []widthCell {
	wttc, htic := problem(taxonomy.WT, taxonomy.TC), problem(taxonomy.HT, taxonomy.IC)
	mf := func(n int) Options { return Options{MaxFailures: n} }
	star, tree := protocols.Star{Procs: 3}, protocols.Tree{Procs: 3}
	cells := []widthCell{
		{"tree-mf2", tree, nil, mf(2)},
		{"star-mf2", star, nil, mf(2)},
		{"chain-mf2", protocols.Chain{Procs: 3}, nil, mf(2)},
		{"tree-mf2/checkall", tree, []taxonomy.Problem{wttc, htic}, Options{MaxFailures: 2, TrackTraces: true}},
		{"star-mf2/stop", star, []taxonomy.Problem{wttc}, Options{MaxFailures: 2, TrackTraces: true, StopAtFirstViolation: true}},
		{"tree-mf2/max5000", tree, []taxonomy.Problem{wttc}, Options{MaxFailures: 2, TrackTraces: true, MaxNodes: 5_000}},
		{"star-mf2/max6000", star, []taxonomy.Problem{htic}, Options{MaxFailures: 2, TrackTraces: true, MaxNodes: 6_000}},
		{"star-mf2/max36000", star, []taxonomy.Problem{wttc}, Options{MaxFailures: 2, TrackTraces: true, MaxNodes: 36_000}},
		{"fullexchange-mf1/both", protocols.FullExchange{Procs: 3}, []taxonomy.Problem{problem(taxonomy.WT, taxonomy.IC)},
			Options{MaxFailures: 1, TrackTraces: true, Reduction: ReduceBoth}},
		{"ackcommit-mf1/omit1m1/both", protocols.AckCommit{Procs: 3}, []taxonomy.Problem{wttc},
			Options{MaxFailures: 1, OmissionBudget: 1, MobileOmissions: 1, TrackTraces: true, Reduction: ReduceBoth}},
		{"star-mf2/elide", star, nil, Options{MaxFailures: 2, Reduction: ReduceElide}},
		{"star-mf2/repeated-inputs", star, []taxonomy.Problem{htic},
			Options{MaxFailures: 2, TrackTraces: true, Inputs: [][]sim.Bit{{1, 1, 1}, {1, 0, 1}, {1, 1, 1}, {0, 0, 0}}}},
	}
	return cells
}

// widthRun walks c once and renders everything it returns: for each judge
// (one Exploration for a plain Explore), every field but ReplayWall —
// reduction counters, node count, status, frontier, terminals, state
// numbering, the census and its occupancies, violations in order,
// FirstInputs and FirstTrace — with the admission records the walk reported
// and the error. It also returns the Explorations themselves.
func widthRun(t *testing.T, c widthCell) (string, []*Exploration) {
	t.Helper()
	var log []admission
	opts := observing(c.opts, &log)
	var xs []*Exploration
	var err error
	if c.problems == nil {
		var x *Exploration
		x, err = ExploreContext(context.Background(), c.proto, opts)
		xs = []*Exploration{x}
	} else {
		xs, err = CheckAll(context.Background(), c.proto, c.problems, opts)
	}
	if xs == nil || xs[0] == nil {
		t.Fatalf("%s: no exploration (err=%v)", c.name, err)
	}
	var sb strings.Builder
	for _, x := range xs {
		sb.WriteString(reducedDigest(x, log))
		fmt.Fprintf(&sb, "occupancies=%v inputs=%v trace=%v blocked=%v\n", x.occupancies, x.FirstInputs, x.FirstTrace, x.ReplayBlocked)
	}
	fmt.Fprintf(&sb, "err=%v\n", err)
	return sb.String(), xs
}

// TestShardedWalkIsWidthIndependent holds the sharded walk, at whatever
// GOMAXPROCS the test runs with (CI runs it at 1, 2 and 4 under the race
// detector), to the joint sequential walk it replaced: each line of
// testdata/width_digests.golden is the sha256 of widthRun's rendering of one
// cell, written by the one-goroutine FIFO walk before the walk was sharded.
// The cells cover complete spaces, CheckAll with two judges, a cut at the
// first violation with traces, budget cuts inside a level, symmetry
// collapsing roots, an omission budget, dead-letter elision and repeated
// input vectors. Each cell is also walked at GOMAXPROCS=1, where the shards
// run in turn on the calling goroutine, and the Explorations are compared
// field by field (ReplayWall and the test's observer aside). Regenerate with
// `go test ./internal/checker -run ShardedWalkIsWidthIndependent -update`
// only for an intended change of the walk's results.
func TestShardedWalkIsWidthIndependent(t *testing.T) {
	cells := widthCells()
	if testing.Short() {
		cells = cells[4:]
	}
	width := runtime.GOMAXPROCS(0)
	var got strings.Builder
	for _, c := range cells {
		d, xs := widthRun(t, c)
		fmt.Fprintf(&got, "%s %x\n", c.name, sha256.Sum256([]byte(d)))
		if width == 1 {
			continue
		}
		runtime.GOMAXPROCS(1)
		d1, xs1 := widthRun(t, c)
		runtime.GOMAXPROCS(width)
		if d1 != d {
			t.Errorf("%s: GOMAXPROCS=%d and 1 differ:\n%s", c.name, width, firstDiff(d1, d))
			continue
		}
		for i := range xs {
			a, b := *xs[i], *xs1[i]
			a.ReplayWall, b.ReplayWall, a.Opts.observe, b.Opts.observe = 0, 0, nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: Exploration %d at GOMAXPROCS=%d and 1 differ field by field", c.name, i, width)
			}
		}
	}

	path := filepath.Join("testdata", "width_digests.golden")
	if *update {
		if testing.Short() {
			t.Fatal("-update needs every cell; run without -short")
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !strings.Contains(string(want), got.String()) {
		t.Errorf("GOMAXPROCS=%d: walks diverged from %s:\n%s", width, path, firstDiff(string(want), got.String()))
	}
}

// TestCutWalkStepsLittlePastTheCut holds a cut walk's work to the cut: a
// shard ends its level where it sees that the fold will stop, so it admits
// at most one node past the room the level had under the budget. At
// GOMAXPROCS=1, where the shards step a level that may be cut in turn, and
// for a walk of one shard at any width, the walk admits exactly what the
// joint walk admitted — one node past the budget, or nothing past the first
// violation — where stepping every level whole admitted the rest of the cut
// level too (2 485 nodes for tree-mf2/max5000's 202).
func TestCutWalkStepsLittlePastTheCut(t *testing.T) {
	wttc, htic := problem(taxonomy.WT, taxonomy.TC), problem(taxonomy.HT, taxonomy.IC)
	star, tree := protocols.Star{Procs: 3}, protocols.Tree{Procs: 3}
	one, ones := [][]sim.Bit{{0, 1, 1}}, [][]sim.Bit{{1, 1, 1}}
	cases := []struct {
		name     string
		proto    sim.Protocol
		problems []taxonomy.Problem
		opts     Options
	}{
		{"tree-mf2/max5000", tree, []taxonomy.Problem{wttc}, Options{MaxFailures: 2, MaxNodes: 5_000}},
		{"star-mf2/max6000", star, []taxonomy.Problem{htic}, Options{MaxFailures: 2, MaxNodes: 6_000}},
		{"star-mf2/max36000", star, nil, Options{MaxFailures: 2, MaxNodes: 36_000}},
		{"tree-mf2/011/max2000", tree, nil, Options{MaxFailures: 2, MaxNodes: 2_000, Inputs: one}},
		{"star-mf2/111/stop", star, []taxonomy.Problem{wttc}, Options{MaxFailures: 2, StopAtFirstViolation: true, Inputs: ones}},
	}
	width := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(width)
	for _, c := range cases {
		for _, w := range []int{1, width} {
			runtime.GOMAXPROCS(w)
			e, err := newExplorer(c.proto, c.problems, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			e.inputs = c.opts.Inputs
			if e.inputs == nil {
				e.inputs = sim.AllInputs(e.n)
			}
			for _, inputs := range e.inputs {
				e.vecs = append(e.vecs, sim.InputsString(inputs))
			}
			err = e.run(context.Background())
			if e.x.Status == StatusComplete && !e.violated {
				t.Fatalf("%s: the walk was not cut (err=%v)", c.name, err)
			}
			// The cut level's admissions are in each shard's next level,
			// and the level started with MaxNodes less its room accepted.
			accepted := e.x.NodeCount - (e.opts.maxNodes() - e.room)
			admitted := 0
			for i, sh := range e.shards {
				admitted += len(sh.next)
				if len(sh.next) > e.room+1 {
					t.Errorf("%s at GOMAXPROCS=%d: shard %d admitted %d nodes in the cut level, whose room was %d", c.name, w, i, len(sh.next), e.room)
				}
			}
			t.Logf("%s at GOMAXPROCS=%d: %d shards, room %d, %d admitted and %d accepted in the cut level", c.name, w, len(e.shards), e.room, admitted, accepted)
			if w > 1 && len(e.shards) > 1 {
				continue
			}
			want := accepted
			if e.x.Status == StatusExhausted {
				want++ // the joint walk admits the node it cuts at, too
			}
			if admitted != want {
				t.Errorf("%s at GOMAXPROCS=%d: the shards admitted %d nodes in the cut level, the joint walk %d", c.name, w, admitted, want)
			}
			if sh := e.shards[len(e.shards)-1]; len(e.shards) == 1 && sh.folded != len(sh.steps) {
				t.Errorf("%s at GOMAXPROCS=%d: the shard stepped %d parents in the cut level, the fold read %d", c.name, w, len(sh.steps), sh.folded)
			}
		}
	}
}
