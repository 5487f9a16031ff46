package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.trace.golden from this build")

// traceCells are the flag sets whose -trace stdout (exit code appended) is
// committed under testdata: a crash-only walk, a walk under both
// reductions, an omission walk whose root key carries the omission
// accounting and whose trace ends in an omit, the same omission walk under
// both reductions, an IC violation found under symmetry, and
// fullexchange(4) under both symmetry modes: S_4 is the largest group the
// reduced cells canonicalize over (|G| = 24).
var traceCells = []struct{ name, args string }{
	{"2pc3-WT-TC", "-proto 2pc -n 3 -problem WT-TC"},
	{"star3-WT-TC-both", "-proto star -n 3 -problem WT-TC -reduce both"},
	{"ackcommit3-WT-TC-omit1", "-proto ackcommit -n 3 -problem WT-TC -omission-budget 1 -maxfail 0"},
	{"ackcommit3-WT-TC-omit1-both", "-proto ackcommit -n 3 -problem WT-TC -omission-budget 1 -maxfail 0 -reduce both"},
	{"chain-st3-ST-IC-symmetry", "-proto chain-st -n 3 -problem ST-IC -reduce symmetry"},
	{"fullexchange4-WT-IC-symmetry", "-proto fullexchange -n 4 -problem WT-IC -maxfail 0 -reduce symmetry"},
	{"fullexchange4-WT-IC-both", "-proto fullexchange -n 4 -problem WT-IC -maxfail 0 -reduce both"},
}

// TestTraceGolden pins what -trace prints — the summary, the first
// violation, and the trace to it from its initial configuration — byte for
// byte.
func TestTraceGolden(t *testing.T) {
	for _, c := range traceCells {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			code := run(append(strings.Fields(c.args), "-trace"), &out)
			fmt.Fprintf(&out, "exit %d\n", code)
			path := filepath.Join("testdata", c.name+".trace.golden")
			if *update {
				if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("cccheck %s -trace differs from %s; this build printed:\n%s", c.args, path, out.String())
			}
		})
	}
}

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
// ran out (exit 3 over "0 configurations"), a negative omission flag is not
// the unbounded model, and a mobile cap without an omission budget is not
// the crash-only space; each is refused before anything is explored.
func TestNegativeBudgetsAreRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-maxnodes", "-5"},
		{"-omission-budget", "-1"},
		{"-mobile-omissions", "-2", "-omission-budget", "1"},
		{"-mobile-omissions", "2"},
	} {
		var out strings.Builder
		if code := run(append([]string{"-proto", "tree", "-n", "3"}, args...), &out); code != 1 || out.Len() != 0 {
			t.Errorf("cccheck %v exits %d, want 1 with nothing on stdout; printed:\n%s", args, code, out.String())
		}
	}
}

// TestSafetyUnderElide: -reduce elide walks a quotient whose census is the
// unreduced one, so the safe-state summary line and the unsafe-state lines
// must read the same as under -reduce none, and so must the exit code
// (the Corollary 6 lines come in
// admission order and may differ). The modes whose census is not exact
// are refused, and the refusal names elide.
func TestSafetyUnderElide(t *testing.T) {
	safetyLines := func(args ...string) string {
		var out strings.Builder
		keep := []string{fmt.Sprintf("exit %d", run(args, &out))}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "safe-state analysis:") || strings.HasPrefix(line, "  unsafe:") || strings.HasPrefix(line, "    reason:") {
				keep = append(keep, line)
			}
		}
		if len(keep) < 3 {
			t.Fatalf("cccheck %v printed no unsafe states:\n%s", args, out.String())
		}
		return strings.Join(keep, "\n")
	}
	for _, cell := range []string{
		"-proto fullexchange -n 3 -problem WT-TC -maxfail 1",
		"-proto star -n 3 -problem HT-IC -maxfail 2",
	} {
		if strings.Contains(cell, "fullexchange") && testing.Short() {
			continue // a 705 904-node unreduced walk
		}
		args := append(strings.Fields(cell), "-safety")
		none, elide := safetyLines(append(args, "-reduce", "none")...), safetyLines(append(args, "-reduce", "elide")...)
		if none != elide {
			t.Errorf("cccheck %s -safety: -reduce none prints\n%s\n-reduce elide prints\n%s", cell, none, elide)
		}
	}
	// The refusal goes to standard error; the exit code and an empty
	// stdout are what a test of run can see.
	for _, mode := range []string{"ample", "symmetry", "both"} {
		var out strings.Builder
		if code := run([]string{"-proto", "star", "-n", "3", "-safety", "-reduce", mode}, &out); code != 1 || out.Len() != 0 {
			t.Errorf("cccheck -safety -reduce %s exits %d, want 1 with nothing on stdout; printed:\n%s", mode, code, out.String())
		}
	}
}
