package checker

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fingerprint"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// strayOmit reports whether ev suppresses a message its target could not
// take now. sim.Applicable accepts an Omit to any non-failed target holding
// the message; sim.AppendEnabled offers one only beside the enabled
// delivery it suppresses. The shrinker, which keeps any applicable
// candidate, can move an Omit to where the explorer never offers it.
func strayOmit(c *sim.Config, ev sim.Event) bool {
	return ev.Type == sim.Omit && !sim.Applicable(c, sim.Event{Proc: ev.Proc, Type: sim.Deliver, Msg: ev.Msg})
}

// TestSweepTracesStayInTheCheckersSpace: every prefix of every failure
// schedule of a seeded N=3 sweep reaches a node the unreduced exploration of
// that input vector admits, under the sweep's failure bound and omission
// policy, up to the first stray Omit (strayOmit). A sweep that walked a
// configuration the checker never admits would be judging runs outside the
// model the checker proves things about.
func TestSweepTracesStayInTheCheckersSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every failing input vector of five sweeps unreduced (about 7 s)")
	}
	cells := []struct {
		name  string
		proto sim.Protocol
		prob  taxonomy.Problem
		opts  chaos.Options
	}{
		{"chain-st/ST-IC", protocols.Chain{Procs: 3, ST: true}, problem(taxonomy.ST, taxonomy.IC),
			chaos.Options{Runs: 300, Seed: 7, Minimize: true}},
		{"2pc/WT-TC", protocols.TwoPhaseCommit{Procs: 3}, problem(taxonomy.WT, taxonomy.TC),
			chaos.Options{Runs: 1000, Seed: 7}},
		{"tree/WT-IC/adaptive-omit2", protocols.Tree{Procs: 3}, problem(taxonomy.WT, taxonomy.IC),
			chaos.Options{Runs: 300, Seed: 7, Minimize: true, Adversary: "adaptive", OmissionBudget: 2}},
		{"ackcommit/WT-TC/adaptive-omit2m1", protocols.AckCommit{Procs: 3}, problem(taxonomy.WT, taxonomy.TC),
			chaos.Options{Runs: 50, Seed: 7, Adversary: "adaptive", OmissionBudget: 2, MobileOmissions: 1}},
		{"ackcommit/WT-TC/adaptive-omit2m1/minimized", protocols.AckCommit{Procs: 3}, problem(taxonomy.WT, taxonomy.TC),
			chaos.Options{Runs: 50, Seed: 7, Minimize: true, Adversary: "adaptive", OmissionBudget: 2, MobileOmissions: 1}},
	}
	// The admitted nodes of one exploration, by protocol, omission policy
	// and input vector.
	admitted := map[string]map[fingerprint.Digest]bool{}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			cell.opts.MaxFailures, cell.opts.Parallel = -1, 1
			rep, err := chaos.Run(context.Background(), cell.proto, cell.prob, cell.opts)
			if err != nil {
				t.Fatal(err)
			}
			pol := sim.OmissionPolicy{Budget: cell.opts.OmissionBudget, Mobile: cell.opts.MobileOmissions}
			checked, in, stray := 0, 0, 0
			for _, f := range rep.Failures {
				space := fmt.Sprint(cell.proto.Name(), pol, f.Inputs)
				if admitted[space] == nil {
					admitted[space] = admittedNodes(t, cell.proto, Options{MaxFailures: -1, Inputs: [][]sim.Bit{f.Inputs},
						OmissionBudget: pol.Budget, MobileOmissions: pol.Mobile})
				}
				nd := &node{cfg: sim.NewConfigOmission(cell.proto, f.Inputs, pol), ledger: make([]sim.Decision, cell.proto.N())}
				for i := 0; ; i++ {
					checked++
					if admitted[space][nodeFP(nd)] {
						in++
					} else {
						t.Errorf("run %d: prefix %d of %v is not admitted", f.RunIndex, i, f.Schedule)
					}
					if i == len(f.Schedule) {
						break
					}
					if strayOmit(nd.cfg, f.Schedule[i]) {
						stray++
						break
					}
					cfg, _, err := sim.Apply(cell.proto, nd.cfg, f.Schedule[i])
					if err != nil {
						t.Fatalf("run %d: event %d of %v: %v", f.RunIndex, i, f.Schedule, err)
					}
					nd = &node{cfg: cfg, ledger: updateLedger(nd.ledger, cfg)}
				}
			}
			if len(rep.Failures) == 0 {
				t.Fatal("the sweep found no failure to check")
			}
			t.Logf("%d failures: %d/%d prefixes admitted; %d schedules cut at a stray omit", len(rep.Failures), in, checked, stray)
		})
	}
}

// admittedNodes is the set of node fingerprints the unreduced exploration
// under opts admits.
func admittedNodes(t *testing.T, proto sim.Protocol, opts Options) map[fingerprint.Digest]bool {
	t.Helper()
	seen := map[fingerprint.Digest]bool{}
	opts.observe = func(_ []int32, nd *node) { seen[nd.fp] = true }
	if _, err := Explore(proto, opts); err != nil {
		t.Fatal(err)
	}
	return seen
}

// TestGoldenTracesWithStrayOmits pins which committed chaos golden traces
// carry a stray Omit (strayOmit), stepping each under its own omission
// policy: a change to where Omits may stand — in the explorer's enumeration
// or the sweeper's — has to change this list deliberately.
func TestGoldenTracesWithStrayOmits(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "chaos", "testdata", "golden", "*.traces"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no chaos golden traces (%v)", err)
	}
	var traces int
	var got []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, entry := range strings.Split(string(data), "=== ")[1:] {
			name, body, _ := strings.Cut(entry, " ===\n")
			traces++
			tr, err := chaos.DecodeTrace([]byte(body))
			if err != nil {
				t.Fatal(err)
			}
			proto := goldenProtocol(tr)
			inputs, inErr := sim.InputsFromString(tr.Inputs)
			sched, schedErr := tr.ScheduleEvents()
			if proto == nil || inErr != nil || schedErr != nil {
				t.Fatalf("%s: protocol %q, inputs %v, schedule %v", name, tr.Protocol, inErr, schedErr)
			}
			c := sim.NewConfigOmission(proto, inputs, sim.OmissionPolicy{Budget: tr.OmissionBudget, Mobile: tr.MobileOmissions})
			for i, ev := range sched {
				if strayOmit(c, ev) {
					got = append(got, fmt.Sprintf("%s at %d", name, i))
					break
				}
				if c, _, err = sim.Apply(proto, c, ev); err != nil {
					t.Fatalf("%s: event %d: %v", name, i, err)
				}
			}
		}
	}
	slices.Sort(got)
	want := []string{"perverse-ST-IC-run00000.json", "perverse-ST-IC-run00001.json", "tree-WT-IC-run00009.json"}
	if traces != 38 || len(got) != len(want) {
		t.Fatalf("%d golden traces, stray omits in %q; want 38 traces, stray omits in %q", traces, got, want)
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]+" ") {
			t.Errorf("stray omits in %q; want them in %q", got, want)
		}
	}
}
