package checker

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/taxonomy"
)

// TestReducedDigestsGolden pins the bytes of reduced explorations across
// commits. The differential suites hold the unreduced walk to the reference
// walk byte for byte, but a reduced walk has no such oracle — only its
// verdict and censuses are compared (TestReductionDifferential), and its
// partial results only to themselves (TestReductionPartialDeterminism). So a
// change to the walk that reorders admissions under a reduction — which
// sibling of a symmetric pair is kept, which ample successor is admitted
// first, which state gets the next id — would pass both. Each line of the
// golden is one exploration: the sha256 of its reducedDigest (reduction
// counters, state numbering, admission records, census, violations in
// order, FirstTrace) and its error. Regenerate an intended change with
// `go test ./internal/checker -run ReducedDigestsGolden -update`.
func TestReducedDigestsGolden(t *testing.T) {
	type cell struct {
		name string
		tc   diffCase
		prob taxonomy.Problem
		mode Reduction
		stop bool
	}
	modes := append([]Reduction{ReduceNone}, reductionModes...)
	wttc := problem(taxonomy.WT, taxonomy.TC)
	var cells []cell
	// The differential matrix — two complete spaces and six cut at 6000
	// nodes — in every mode, against a problem most of it solves and one
	// most of it breaks, walked on and cut at the first violation.
	for _, tc := range diffCases() {
		for _, prob := range []taxonomy.Problem{wttc, problem(taxonomy.HT, taxonomy.IC)} {
			for _, mode := range modes {
				for _, stop := range []bool{false, true} {
					cells = append(cells, cell{fmt.Sprintf("%s/%s/%v/stop=%v", tc.name, prob.Name(), mode, stop), tc, prob, mode, stop})
				}
			}
		}
	}
	// Complete reduced spaces with failures (the unreduced ones are
	// TestCensusEBarGolden's), and two budgets that cut star(3) inside the
	// roots and inside the first expansion.
	for _, tc := range []diffCase{
		{"tree-mf2", protocols.Tree{Procs: 3}, Options{MaxFailures: 2}},
		{"star-mf2", protocols.Star{Procs: 3}, Options{MaxFailures: 2}},
		{"fullexchange-mf1", protocols.FullExchange{Procs: 3}, Options{MaxFailures: 1}},
	} {
		for _, mode := range reductionModes {
			cells = append(cells, cell{fmt.Sprintf("%s/complete/%v", tc.name, mode), tc, wttc, mode, false})
		}
	}
	for _, budget := range []int{1, 17} {
		tc := diffCase{"star-mf2", protocols.Star{Procs: 3}, Options{MaxFailures: 2, MaxNodes: budget}}
		for _, mode := range modes {
			cells = append(cells, cell{fmt.Sprintf("%s/max%d/%v", tc.name, budget, mode), tc, wttc, mode, false})
		}
	}

	// The cells share nothing, so they run as parallel subtests; the group
	// returns when the last one has written its line.
	lines := make([]string, len(cells))
	t.Run("cells", func(t *testing.T) {
		for i, c := range cells {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				opts := c.tc.opts
				opts.TrackTraces = true
				opts.Reduction = c.mode
				opts.StopAtFirstViolation = c.stop
				var log []admission
				x, err := CheckContext(context.Background(), c.tc.proto, c.prob, observing(opts, &log))
				if x == nil {
					t.Fatalf("nil exploration (err=%v)", err)
				}
				lines[i] = fmt.Sprintf("%s %x err=%v\n", c.name, sha256.Sum256([]byte(reducedDigest(x, log))), err)
			})
		}
	})
	got := strings.Join(lines, "")

	path := filepath.Join("testdata", "reduced_digests.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("reduced explorations diverged from %s:\n%s", path, firstDiff(string(want), got))
	}
}
