package main

import (
	"strings"
	"testing"
)

// TestSafetyLineCarriesThePartialCaveat: on a budget-cut exploration the
// safe-state line must not read as a proof — "0 unsafe" covers the visited
// prefix only — and the exit code stays 3; a complete run prints no caveat.
func TestSafetyLineCarriesThePartialCaveat(t *testing.T) {
	const caveat = "NOT a proof"
	safetyLine := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "safe-state analysis:") {
				return line
			}
		}
		t.Fatalf("no safe-state line in:\n%s", out)
		return ""
	}

	var out strings.Builder
	code := run([]string{"-proto", "tree", "-n", "3", "-problem", "WT-TC", "-safety", "-maxnodes", "5000"}, &out)
	if code != 3 {
		t.Errorf("partial run exits %d, want 3", code)
	}
	line := safetyLine(out.String())
	if !strings.HasPrefix(line, "safe-state analysis: 167 operational states, 0 unsafe, 0 Corollary 6 violation(s)") || !strings.Contains(line, caveat) {
		t.Errorf("partial run's safety line carries no caveat: %q", line)
	}

	out.Reset()
	code = run([]string{"-proto", "tree", "-n", "3", "-problem", "WT-TC", "-safety", "-maxfail", "1"}, &out)
	if code != 0 {
		t.Errorf("complete run exits %d, want 0", code)
	}
	if strings.Contains(out.String(), caveat) {
		t.Errorf("complete run is caveated:\n%s", out.String())
	}
	safetyLine(out.String())
}

// TestNegativeBudgetsAreRefused: a negative -maxnodes is not a budget that
// ran out (exit 3 over "0 configurations"), and a negative omission flag is
// not the unbounded model; each is refused before anything is explored.
func TestNegativeBudgetsAreRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-maxnodes", "-5"},
		{"-omission-budget", "-1"},
		{"-mobile-omissions", "-2", "-omission-budget", "1"},
	} {
		var out strings.Builder
		if code := run(append([]string{"-proto", "tree", "-n", "3"}, args...), &out); code != 1 || out.Len() != 0 {
			t.Errorf("cccheck %v exits %d, want 1 with nothing on stdout; printed:\n%s", args, code, out.String())
		}
	}
}
