package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	consensus "repro"
)

var update = flag.Bool("update", false, "rewrite internal/chaos/testdata/golden from this build")

// goldenSweeps are the flag sets whose stdout (exit code appended) and
// -trace-dir bytes are committed under internal/chaos/testdata/golden. The
// files were recorded from the ccchaos binary of 1b5fe81 — the last commit
// whose sweeper kept a cloned history per run and whose shrinker replayed
// every candidate through one — so this test is that commit's output, byte
// for byte, not this build's opinion of itself.
var goldenSweeps = []struct{ name, args string }{
	{"tree7-WT-TC-adaptive-omit2m1", "-proto tree -n 7 -problem WT-TC -adversary adaptive -max-failures 0 -omission-budget 2 -mobile-omissions 1 -seed 1984 -runs 12"},
	{"star4-HT-IC", "-proto star -n 4 -problem HT-IC -runs 300 -seed 7"},
	{"2pc4-WT-TC", "-proto 2pc -n 4 -problem WT-TC -runs 300 -seed 7"},
	{"perverse3-ST-IC-delay-omit1", "-proto perverse -n 3 -problem ST-IC -adversary delay -omission-budget 1 -runs 8 -seed 7"},
	{"chain5-HT-TC-adaptive", "-proto chain -n 5 -problem HT-TC -adversary adaptive -runs 6 -seed 7"},
	{"tree7-WT-IC-adaptive-omit3", "-proto tree -n 7 -problem WT-IC -adversary adaptive -omission-budget 3 -runs 12 -seed 7 -v"},
}

func TestGoldenSweeps(t *testing.T) {
	golden, err := filepath.Abs("../../internal/chaos/testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd) // the subtests change directory; none runs in parallel
	for _, g := range goldenSweeps {
		t.Run(g.name, func(t *testing.T) {
			// Trace paths are printed, so the sweep writes to a relative
			// directory of a scratch working directory.
			if err := os.Chdir(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			code := run(append(strings.Fields(g.args), "-trace-dir", "traces"), &stdout, &stderr)
			fmt.Fprintf(&stdout, "exit %d\n", code)
			if stderr.Len() > 0 {
				t.Errorf("stderr: %s", stderr.String())
			}

			// The trace directory as one file: every trace in name order
			// under a header line. Each must also replay to its own record.
			var traces bytes.Buffer
			entries, _ := os.ReadDir("traces") // no directory: no violations
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join("traces", e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&traces, "=== %s ===\n%s", e.Name(), data)
				replayReproduces(t, e.Name(), data)
			}

			for ext, got := range map[string][]byte{".stdout": stdout.Bytes(), ".traces": traces.Bytes()} {
				path := filepath.Join(golden, g.name+ext)
				if *update {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from %s (%d bytes, golden %d); this build wrote:\n%s", ext, path, len(got), len(want), got)
				}
			}
		})
	}
}

// replayReproduces is what cccheck -replay does with a trace file.
func replayReproduces(t *testing.T, name string, data []byte) {
	t.Helper()
	tr, err := consensus.DecodeChaosTrace(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	proto, err := consensus.ProtocolByName(tr.ProtoArg, tr.N)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	prob, err := consensus.ParseProblem(tr.Problem)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res, err := consensus.ReplayChaosTrace(tr, proto, prob); err != nil || !res.Reproduced {
		t.Errorf("%s does not replay to its recorded violations: %v", name, err)
	}
}

// TestNegativeCountsAreRefused: -runs -1 used to panic in the planner, and
// -max-steps -5 ran nothing, called every run unresolved, printed "OK: no
// violations found" and exited 0 — a sweep that tested nothing and said it
// passed. Both are refused with the option named, and exit 2. A mobile cap
// without an omission budget used to sweep the crash-only model; it is a
// usage error, exit 1.
func TestNegativeCountsAreRefused(t *testing.T) {
	for flagName, option := range map[string]string{
		"-runs":             "Runs",
		"-max-steps":        "MaxSteps",
		"-omission-budget":  "OmissionBudget",
		"-mobile-omissions": "MobileOmissions",
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-proto", "tree", "-n", "3", flagName, "-5"}, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), option+" is negative (-5)") {
			t.Errorf("%s -5: exit %d, stdout %q, stderr %q; want exit 2 and an error naming %s",
				flagName, code, stdout.String(), stderr.String(), option)
		}
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-proto", "tree", "-n", "3", "-mobile-omissions", "2"}, &stdout, &stderr)
	if code != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "-mobile-omissions needs -omission-budget") {
		t.Errorf("-mobile-omissions 2 without a budget: exit %d, stdout %q, stderr %q; want exit 1 and a usage error",
			code, stdout.String(), stderr.String())
	}
}
