package chaos

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

var update = flag.Bool("update", false, "rewrite testdata/shrink.golden from this build")

// compactEvent renders one schedule element in a few bytes: s1, f2,
// d0.1.3 (deliver the third message from p0 to p1), o0.1.3 (omit it).
func compactEvent(e sim.Event) string {
	switch e.Type {
	case sim.Deliver:
		return fmt.Sprintf("d%d.%d.%d", e.Msg.From, e.Msg.To, e.Msg.Seq)
	case sim.Omit:
		return fmt.Sprintf("o%d.%d.%d", e.Msg.From, e.Msg.To, e.Msg.Seq)
	case sim.Fail:
		return fmt.Sprintf("f%d", e.Proc)
	default:
		return fmt.Sprintf("s%d", e.Proc)
	}
}

func compactSchedule(s sim.Schedule) string {
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = compactEvent(e)
	}
	return strings.Join(parts, " ")
}

// TestShrinkGolden holds the sweeper and the shrinker to the commit that
// still replayed every candidate through a cloning sim.Run (1b5fe81, which
// recorded testdata/shrink.golden with -update): on 200 violating runs the
// unshrunk schedule the sweep reports, the schedule Shrink reduces it to,
// the number of candidates it tried and the violations it returns are the
// same, line for line.
func TestShrinkGolden(t *testing.T) {
	cells := []struct {
		name    string
		proto   sim.Protocol
		problem taxonomy.Problem
		opts    Options
	}{
		{"tree7-adaptive-omit2m1", protocols.Tree{Procs: 7}, problem(taxonomy.WT, taxonomy.TC),
			Options{Runs: 110, Seed: 611, MaxFailures: 0, Adversary: AdversaryAdaptive, OmissionBudget: 2, MobileOmissions: 1}},
		{"chain-st3-crashes", protocols.Chain{Procs: 3, ST: true}, problem(taxonomy.ST, taxonomy.IC),
			Options{Runs: 6000, Seed: 611, MaxFailures: 2, Inputs: [][]sim.Bit{{sim.One, sim.One, sim.One}}}},
	}
	var got bytes.Buffer
	for _, c := range cells {
		rep, err := Run(context.Background(), c.proto, c.problem, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Failures) < 100 {
			t.Fatalf("%s: only %d violating runs, want at least 100", c.name, len(rep.Failures))
		}
		for _, f := range rep.Failures[:100] {
			shrunk, vs, tried := Shrink(c.proto, f.Inputs, f.Schedule, c.problem, f.Violations[0].Kind)
			fmt.Fprintf(&got, "%s run %d tried %d\n\tfrom %s\n\tto   %s\n", c.name, f.RunIndex, tried,
				compactSchedule(f.Schedule), compactSchedule(shrunk))
			for _, v := range vs {
				fmt.Fprintf(&got, "\t%s\n", v)
			}
		}
	}
	const path = "testdata/shrink.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("%s has %d lines, this build produced %d", path, len(wl), len(gl))
	}
}
