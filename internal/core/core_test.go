package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/taxonomy"
)

func p(t taxonomy.Termination, c taxonomy.Consistency) taxonomy.Problem {
	return taxonomy.Problem{Rule: taxonomy.UnanimityRule{}, Termination: t, Consistency: c}
}

func TestLatticeMatchesClosingDiagram(t *testing.T) {
	l := BuildLattice()

	// The six strict edges of the diagram.
	strictEdges := [][2]taxonomy.Problem{
		{p(taxonomy.WT, taxonomy.IC), p(taxonomy.WT, taxonomy.TC)},
		{p(taxonomy.ST, taxonomy.IC), p(taxonomy.ST, taxonomy.TC)},
		{p(taxonomy.HT, taxonomy.IC), p(taxonomy.HT, taxonomy.TC)},
		{p(taxonomy.WT, taxonomy.IC), p(taxonomy.ST, taxonomy.IC)},
		{p(taxonomy.ST, taxonomy.IC), p(taxonomy.HT, taxonomy.IC)},
		{p(taxonomy.WT, taxonomy.TC), p(taxonomy.ST, taxonomy.TC)},
		{p(taxonomy.ST, taxonomy.TC), p(taxonomy.HT, taxonomy.TC)},
		{p(taxonomy.WT, taxonomy.IC), p(taxonomy.HT, taxonomy.IC)}, // Corollary 10
		{p(taxonomy.WT, taxonomy.TC), p(taxonomy.HT, taxonomy.TC)},
	}
	for _, e := range strictEdges {
		if got := l.Relation(e[0], e[1]); got != RelReducesStrictly {
			t.Errorf("%s vs %s: relation = %s, want ≺", e[0].Name(), e[1].Name(), got)
		}
		if got := l.Relation(e[1], e[0]); got != RelReducedByStrictly {
			t.Errorf("%s vs %s: relation = %s, want ≻", e[1].Name(), e[0].Name(), got)
		}
	}

	// The incomparabilities of Theorem 8 and Corollary 11.
	incomparable := [][2]taxonomy.Problem{
		{p(taxonomy.HT, taxonomy.IC), p(taxonomy.WT, taxonomy.TC)},
		{p(taxonomy.HT, taxonomy.IC), p(taxonomy.ST, taxonomy.TC)},
	}
	for _, e := range incomparable {
		if got := l.Relation(e[0], e[1]); got != RelIncomparable {
			t.Errorf("%s vs %s: relation = %s, want incomparable", e[0].Name(), e[1].Name(), got)
		}
	}

	// ST-IC vs WT-TC: WT-TC ⋠ ST-IC is forced (else WT-TC ⪯ HT-IC), but
	// the paper does not derive whether ST-IC ⪯ WT-TC: half open.
	if got := l.Relation(p(taxonomy.ST, taxonomy.IC), p(taxonomy.WT, taxonomy.TC)); got != RelHalfOpen {
		t.Errorf("ST-IC vs WT-TC: relation = %s, want half-open", got)
	}
	if !l.NotReduces(p(taxonomy.WT, taxonomy.TC), p(taxonomy.ST, taxonomy.IC)) {
		t.Error("WT-TC ⋠ ST-IC should be derived")
	}
}

func TestLatticeDerivesCorollaries(t *testing.T) {
	l := BuildLattice()
	// Corollary 9: T-TC ⋠ T-IC for every T.
	for _, term := range []taxonomy.Termination{taxonomy.WT, taxonomy.ST, taxonomy.HT} {
		if !l.NotReduces(p(term, taxonomy.TC), p(term, taxonomy.IC)) {
			t.Errorf("Corollary 9 not derived for %s", term)
		}
	}
	// Corollary 10/12: HT-C ⋠ WT-C and HT-C ⋠ ST-C.
	for _, cons := range []taxonomy.Consistency{taxonomy.IC, taxonomy.TC} {
		if !l.NotReduces(p(taxonomy.HT, cons), p(taxonomy.WT, cons)) {
			t.Errorf("Corollary 10 not derived for %s", cons)
		}
		if !l.NotReduces(p(taxonomy.HT, cons), p(taxonomy.ST, cons)) {
			t.Errorf("Corollary 12 not derived for %s", cons)
		}
	}
	// Theorem 1 positives hold.
	if !l.Reduces(p(taxonomy.WT, taxonomy.IC), p(taxonomy.HT, taxonomy.TC)) {
		t.Error("WT-IC ⪯ HT-TC should hold by Theorem 1")
	}
	// Consistency: nothing is both reduced and not-reduced.
	for _, a := range l.Problems {
		for _, b := range l.Problems {
			if l.Reduces(a, b) && l.NotReduces(a, b) {
				t.Errorf("contradiction: %s both ⪯ and ⋠ %s", a.Name(), b.Name())
			}
		}
	}
}

func TestLatticeRender(t *testing.T) {
	l := BuildLattice()
	out := l.Render()
	for _, want := range []string{"WT-IC ≺ WT-TC", "HT-IC ≺ HT-TC", "incomparable", "Theorem 8", "Theorem 13"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}

func TestTheorem8Pattern(t *testing.T) {
	ev := Theorem8Pattern()
	if !ev.OK {
		t.Fatalf("%s: %v", ev.Name, ev.Details)
	}
}

func TestTheorem8Replay(t *testing.T) {
	ev := Theorem8Replay()
	if !ev.OK {
		t.Fatalf("%s: %v", ev.Name, ev.Details)
	}
	t.Log(strings.Join(ev.Details, "\n"))
}

func TestTheorem13ChainReplay(t *testing.T) {
	ev := Theorem13ChainReplay()
	if !ev.OK {
		t.Fatalf("%s: %v", ev.Name, ev.Details)
	}
	t.Log(strings.Join(ev.Details, "\n"))
}

func TestTheorem13Perverse(t *testing.T) {
	ev := Theorem13Perverse()
	if !ev.OK {
		t.Fatalf("%s: %v", ev.Name, ev.Details)
	}
}

func TestCorollary11SchemeFact(t *testing.T) {
	ev := Corollary11SchemeFact()
	if !ev.OK {
		t.Fatalf("%s: %v", ev.Name, ev.Details)
	}
}

func TestWitnessesQuick(t *testing.T) {
	evidence := Witnesses(WitnessOptions{})
	for _, ev := range evidence {
		if !ev.OK {
			t.Errorf("%s failed: %v", ev.Name, ev.Details)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// TestWitnessesExhaustive runs every witness and pins the evidence — names,
// claims, verdicts, every details line, in citation order — against a
// golden file recorded when each (protocol, problem) pair was still checked
// by a walk of its own: walking a protocol's space once for all its
// problems must change no word of it. Regenerate an intended change with
// `go test ./internal/core -run WitnessesExhaustive -update`.
func TestWitnessesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive witnesses take ~10 seconds")
	}
	evidence := Witnesses(WitnessOptions{Exhaustive: true})
	for _, ev := range evidence {
		if !ev.OK {
			t.Errorf("%s failed: %v", ev.Name, ev.Details)
		}
	}
	if !AllOK(evidence) {
		t.Error("AllOK should agree with the per-item checks")
	}

	var sb strings.Builder
	for _, ev := range evidence {
		fmt.Fprintln(&sb, ev.String())
		for _, d := range ev.Details {
			fmt.Fprintln(&sb, "  "+d)
		}
	}
	path := filepath.Join("testdata", "witnesses_exhaustive.golden")
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
		t.Errorf("evidence diverged from %s:\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// TestWitnessesCancellation: with the context already cancelled, every
// exhaustive walk and the chaos sweep return at once, and none of them
// claims a verdict it did not reach; the replays and scheme facts, which
// take milliseconds and no context, still verify.
func TestWitnessesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	walks := 0
	for _, ev := range Witnesses(WitnessOptions{Exhaustive: true, Context: ctx}) {
		walked := strings.HasPrefix(ev.Name, "Solver check") || strings.Contains(ev.Name, "(second half)") || strings.Contains(ev.Name, "(checker confirmation)")
		if !walked {
			continue
		}
		walks++
		if ev.OK {
			t.Errorf("%s claims ok under a cancelled context: %v", ev.Name, ev.Details)
		}
		if len(ev.Details) != 1 || !strings.Contains(ev.Details[0], "context canceled") {
			t.Errorf("%s: details %q, want the interruption alone", ev.Name, ev.Details)
		}
	}
	// The chaos sweep, eleven solver checks, and the two violation hunts.
	if walks != 14 {
		t.Errorf("%d context-bounded witnesses, want 14", walks)
	}
}

func TestRelationStrings(t *testing.T) {
	want := map[Relation]string{
		RelEqual:             "=",
		RelReducesStrictly:   "≺",
		RelReducedByStrictly: "≻",
		RelIncomparable:      "incomparable",
		RelHalfOpen:          "⋠ (converse open)",
		RelUnknown:           "open",
	}
	for rel, s := range want {
		if rel.String() != s {
			t.Errorf("%d renders %q, want %q", rel, rel.String(), s)
		}
	}
}

func TestEvidenceString(t *testing.T) {
	ev := Evidence{Name: "Theorem X", Claim: "something holds", OK: true}
	if got := ev.String(); !strings.Contains(got, "ok") || !strings.Contains(got, "Theorem X") {
		t.Errorf("rendering: %s", got)
	}
	ev.OK = false
	if got := ev.String(); !strings.Contains(got, "FAIL") {
		t.Errorf("rendering: %s", got)
	}
}

func TestProblemIndexOrdersTheDiagram(t *testing.T) {
	l := BuildLattice()
	wantOrder := []string{"WT-IC", "WT-TC", "ST-IC", "ST-TC", "HT-IC", "HT-TC"}
	for i, p := range l.Problems {
		if p.Name() != wantOrder[i] {
			t.Fatalf("Problems[%d] = %s, want %s", i, p.Name(), wantOrder[i])
		}
		if problemIndex(p) != i {
			t.Fatalf("problemIndex(%s) = %d, want %d", p.Name(), problemIndex(p), i)
		}
	}
}
