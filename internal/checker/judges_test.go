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
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// TestJudgesAgreeAcrossEngines holds the explorer and the run engines
// (taxonomy.StreamChecker: the sweeper, the shrinker, cccheck -replay) to one
// meaning of "violates", in both directions: the explorer's first violation,
// replayed as a run along its trace, is reported by the run's judge; and
// every violation a committed chaos trace records comes out of the
// explorer's judges when they step that trace.
func TestJudgesAgreeAcrossEngines(t *testing.T) {
	t.Run("explorer-to-run", func(t *testing.T) {
		problems := []taxonomy.Problem{
			problem(taxonomy.WT, taxonomy.TC), problem(taxonomy.HT, taxonomy.IC),
			problem(taxonomy.ST, taxonomy.IC), problem(taxonomy.HT, taxonomy.TC),
		}
		replayed := 0
		for _, tc := range diffCases() {
			for _, mode := range append([]Reduction{ReduceNone}, reductionModes...) {
				t.Run(fmt.Sprintf("%s/%v", tc.name, mode), func(t *testing.T) {
					opts := tc.opts
					opts.TrackTraces, opts.Reduction = true, mode
					xs, err := CheckAll(context.Background(), tc.proto, problems, opts)
					if xs == nil {
						t.Fatal(err)
					}
					for i, x := range xs {
						if !x.Conforms() {
							firstOnRun(t, problems[i], x)
							replayed++
						}
					}
				})
			}
		}
		t.Logf("%d first violations replayed as runs", replayed)
	})

	t.Run("run-to-explorer", func(t *testing.T) {
		files, err := filepath.Glob(filepath.Join("..", "chaos", "testdata", "golden", "*.traces"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no chaos golden traces (%v)", err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, entry := range strings.Split(string(data), "=== ")[1:] {
				name, body, _ := strings.Cut(entry, " ===\n")
				t.Run(name, func(t *testing.T) { traceOnExplorer(t, body) })
			}
		}
	})
}

// firstOnRun replays x's counterexample — its inputs and schedule — through
// chaos.Evaluate and requires the run's judge to report x's first
// violation. IC numbers a configuration by its step in a run and by its
// admission in an exploration, so only that number may differ.
func firstOnRun(t *testing.T, prob taxonomy.Problem, x *Exploration) {
	t.Helper()
	v := chaos.Evaluate(x.Proto, x.FirstInputs, x.FirstTrace, prob)
	if !v.Applicable {
		t.Fatalf("%s: the first violation's schedule does not apply from inputs %v: %v", prob.Name(), x.FirstInputs, x.FirstTrace)
	}
	want := x.Violations[0]
	if want.Kind == "IC" {
		_, rest, _ := strings.Cut(want.Detail, ": ")
		want.Detail = fmt.Sprintf("configuration %d: %s", len(x.FirstTrace), rest)
	}
	if !slices.Contains(v.Violations, want) {
		t.Errorf("%s: the explorer's first violation %v is not among the run's %v (schedule %v)", prob.Name(), x.Violations[0], v.Violations, x.FirstTrace)
	}
}

// traceOnExplorer steps one chaos trace through the explorer's judges —
// sim.Apply, ledgerAfter, the trace's own omission policy — numbering each
// configuration by its step, and requires every violation the trace records
// to come out, and the final configuration's termination verdict to be
// exactly the recorded one.
func traceOnExplorer(t *testing.T, body string) {
	tr, err := chaos.DecodeTrace([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Panic != "" {
		t.Skipf("a panic trace records no schedule to step")
	}
	proto := goldenProtocol(tr)
	var prob taxonomy.Problem
	for _, p := range taxonomy.SixProblems() {
		if p.Name() == tr.Problem {
			prob = p
		}
	}
	inputs, inErr := sim.InputsFromString(tr.Inputs)
	sched, schedErr := tr.ScheduleEvents()
	if proto == nil || prob.Rule == nil || inErr != nil || schedErr != nil {
		t.Fatalf("cannot step the trace: protocol %q, problem %q, inputs %v, schedule %v", tr.Protocol, tr.Problem, inErr, schedErr)
	}

	nd := &node{cfg: sim.NewConfigOmission(proto, inputs, sim.OmissionPolicy{Budget: tr.OmissionBudget, Mobile: tr.MobileOmissions}),
		ledger: make([]sim.Decision, proto.N()), inputs: inputs}
	found := nodeViolations(nil, prob, 0, nd)
	atFinal := found
	for i, ev := range sched {
		failed := 0
		for p := range nd.cfg.States {
			if nd.cfg.Faulty(sim.ProcID(p)) {
				failed++
			}
		}
		cfg, _, err := sim.Apply(proto, nd.cfg, ev)
		if err != nil {
			t.Skipf("the recorded omission policy (budget %d, mobile %d) refuses the shrunk schedule at event %d: %v",
				tr.OmissionBudget, tr.MobileOmissions, i, err)
		}
		next := &node{cfg: cfg, ledger: ledgerAfter(nd.ledger, cfg), inputs: inputs}
		found = edgeViolations(found, prob, nd, next, failed > 0 || nd.cfg.OmissionsUsed() > 0)
		atFinal = nodeViolations(nil, prob, i+1, next)
		found, nd = append(found, atFinal...), next
	}

	termination := func(kind string) bool { return kind == "WT" || kind == "ST" || kind == "HT" }
	var termGot, termWant []string
	for _, v := range atFinal {
		if termination(v.Kind) {
			termGot = append(termGot, v.String())
		}
	}
	for _, rec := range tr.Violations {
		v := taxonomy.Violation{Kind: rec.Kind, Detail: rec.Detail}
		if termination(v.Kind) {
			termWant = append(termWant, v.String())
		}
		if !slices.Contains(found, v) {
			t.Errorf("recorded %v does not come out of the explorer's judges", v)
		}
	}
	if !slices.Equal(termGot, termWant) {
		t.Errorf("termination at the final configuration:\n got  %q\n want %q", termGot, termWant)
	}
}

// goldenProtocol is the protocol a committed chaos golden trace was recorded
// on, or nil.
func goldenProtocol(tr *chaos.Trace) sim.Protocol {
	for _, p := range []sim.Protocol{
		protocols.TwoPhaseCommit{Procs: tr.N}, protocols.Chain{Procs: tr.N}, protocols.Perverse{},
		protocols.Star{Procs: tr.N}, protocols.Tree{Procs: tr.N},
	} {
		if p.Name() == tr.Protocol {
			return p
		}
	}
	return nil
}
