package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// TestE5LatticeGolden pins the full E5 report — the lattice diagram, the
// derived relation matrix, and all 19 machine-checked witnesses with their
// node counts — against a committed golden file. The exploration engine is
// deterministic by contract, so any diff here is a behaviour change:
// either intended (regenerate with `go test -run E5LatticeGolden -update`)
// or a regression the differential suite should have caught.
func TestE5LatticeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("E5 exhaustive pass is slow; skipped with -short")
	}
	checkGolden(t, "e5_lattice.golden", E5Lattice(Options{}).String())
}

// TestE2E7Golden pins the two reports that read the safe-state analysis:
// E2's first Corollary 6 violation of star(3) and E7's table of states,
// unsafe states and Corollary 6 counts over five complete explorations.
// Regenerate an intended change with `go test -run E2E7Golden -update`.
func TestE2E7Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("E2 and E7 walk five complete spaces; skipped with -short")
	}
	checkGolden(t, "e2_report.golden", E2Figure2Star(Options{}).String())
	checkGolden(t, "e7_report.golden", E7Theorem2(Options{}).String())
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("output diverged from %s.\nIf the change is intended, regenerate with:\n  go test ./internal/experiments -run %s -update\n\ndiff:\n%s", path, t.Name(), diffLines(string(want), got))
	}
}

// diffLines renders a minimal line diff: the first divergent line with
// context, which locates a golden mismatch without a diff dependency.
func diffLines(want, got string) string {
	w := splitKeepNL(want)
	g := splitKeepNL(got)
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  golden: %s  got:    %s", i+1, wl, gl)
		}
	}
	return "(outputs equal?)"
}

func splitKeepNL(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		if i < len(s) {
			i++
		}
		out = append(out, s[:i])
		s = s[i:]
	}
	return out
}
