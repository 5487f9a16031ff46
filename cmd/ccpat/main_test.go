package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.scheme.golden from this build")

// schemeCells are the flag sets whose -scheme stdout is committed under
// testdata: Figure 4's four perverse patterns, and haltingcommit(4)'s 16,
// the largest scheme the benchmark enumerates.
var schemeCells = []struct{ name, args string }{
	{"perverse", "-proto perverse -scheme"},
	{"haltingcommit4", "-proto haltingcommit -n 4 -scheme"},
}

// TestSchemeGolden pins the rendered schemes byte for byte: which patterns
// the enumeration finds, their order, and how each is drawn.
func TestSchemeGolden(t *testing.T) {
	for _, c := range schemeCells {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(strings.Fields(c.args), &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.name+".scheme.golden")
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
				t.Errorf("ccpat %s differs from %s; this build printed:\n%s", c.args, path, out.String())
			}
		})
	}
}

// TestBadInjectionIsAnError: a failure injection naming a processor the
// protocol does not have, or a negative step, is refused with the
// scheduler's message (main prints it and exits 1) instead of panicking.
func TestBadInjectionIsAnError(t *testing.T) {
	for _, c := range []struct{ fail, want string }{
		{"9:1", "names processor 9"},
		{"0:-2", "negative step"},
	} {
		var out strings.Builder
		err := run([]string{"-proto", "tree", "-n", "3", "-fail", c.fail}, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ccpat -fail %s: %v, want an error containing %q", c.fail, err, c.want)
		}
	}
}
