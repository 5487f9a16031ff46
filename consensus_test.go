package consensus_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	consensus "repro"
)

func TestQuickstartFlow(t *testing.T) {
	proto := consensus.Tree(7)
	run, err := consensus.Run(proto, consensus.MustInputs("1111111"), 1)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 7; p++ {
		d, ok := run.DecisionOf(consensus.ProcID(p))
		if !ok || d != consensus.Commit {
			t.Fatalf("p%d: decision %v (ok=%v), want commit", p, d, ok)
		}
	}
	pat := consensus.PatternOf(run)
	if err := pat.Validate(); err != nil {
		t.Fatal(err)
	}
	if pat.Size() != run.MessagesSent() {
		t.Fatalf("pattern size %d != messages sent %d", pat.Size(), run.MessagesSent())
	}
	if !strings.Contains(pat.RenderASCII(), "level 1") {
		t.Error("ASCII rendering looks wrong")
	}
}

func TestFacadeProblemAndCheck(t *testing.T) {
	problem := consensus.UnanimityProblem(consensus.WT, consensus.TC)
	if problem.Name() != "WT-TC" {
		t.Fatalf("problem name = %s", problem.Name())
	}
	x, err := consensus.Check(consensus.AckCommit(3), problem, consensus.CheckOptions{MaxFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !x.Conforms() {
		t.Fatalf("ackcommit(3) should conform to WT-TC: %v", x.Violations)
	}
}

func TestFacadeScheme(t *testing.T) {
	set, err := consensus.SchemeOf(consensus.Chain(3), consensus.SchemeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 {
		t.Fatalf("chain(3) scheme size = %d, want 1", set.Len())
	}
}

func TestFacadeLattice(t *testing.T) {
	l := consensus.BuildLattice()
	a := consensus.UnanimityProblem(consensus.HT, consensus.IC)
	b := consensus.UnanimityProblem(consensus.WT, consensus.TC)
	if l.Relation(a, b).String() != "incomparable" {
		t.Fatalf("HT-IC vs WT-TC: %s", l.Relation(a, b))
	}
}

func TestFacadeTransforms(t *testing.T) {
	run, err := consensus.Run(consensus.TotalComm(consensus.Chain(3)), consensus.MustInputs("111"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := run.DecisionOf(0); !ok || d != consensus.Commit {
		t.Fatal("padded chain should still commit")
	}
	run2, err := consensus.Run(consensus.EliminateEBar(consensus.Chain(3)), consensus.MustInputs("101"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := run2.DecisionOf(0); !ok || d != consensus.Abort {
		t.Fatal("E̅-free chain should abort on a 0 input")
	}
}

func TestFacadeFailureInjection(t *testing.T) {
	run, err := consensus.RunWithOptions(consensus.HaltingCommit(4), consensus.MustInputs("1111"),
		consensus.RunnerOptions{Seed: 3, Failures: []consensus.FailureAt{{Proc: 0, AfterStep: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	agreed := consensus.NoDecision
	for p := 0; p < 4; p++ {
		if d, ok := run.DecisionOf(consensus.ProcID(p)); ok {
			if agreed == consensus.NoDecision {
				agreed = d
			} else if agreed != d {
				t.Fatal("total consistency violated under failure injection")
			}
		}
	}
}

func TestProtocolByName(t *testing.T) {
	for _, name := range consensus.ProtocolNames() {
		proto, err := consensus.ProtocolByName(name, 4)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if proto.N() < 2 {
			t.Errorf("%s: N = %d", name, proto.N())
		}
	}
	if _, err := consensus.ProtocolByName("nope", 3); err == nil {
		t.Error("unknown name should error")
	}
}

func TestParseProblem(t *testing.T) {
	cases := map[string]string{
		"WT-TC": "WT-TC",
		"st-ic": "ST-IC",
		"HT-tc": "HT-TC",
	}
	for in, want := range cases {
		p, err := consensus.ParseProblem(in)
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("%s parsed to %s, want %s", in, p.Name(), want)
		}
	}
	for _, bad := range []string{"WT", "XX-TC", "WT-XX", ""} {
		if _, err := consensus.ParseProblem(bad); err == nil {
			t.Errorf("%q should not parse", bad)
		}
	}
}

func TestRunTraceAndSummary(t *testing.T) {
	run, err := consensus.Run(consensus.AckCommit(3), consensus.MustInputs("111"), 1)
	if err != nil {
		t.Fatal(err)
	}
	trace := run.Trace()
	if len(trace) != run.Steps()+1 {
		t.Fatalf("trace lines = %d, want %d", len(trace), run.Steps()+1)
	}
	if !strings.Contains(strings.Join(trace, "\n"), "decides commit") {
		t.Error("trace should announce decisions")
	}
	sum := run.Summary()
	for _, want := range []string{"ackcommit", "decided commit", "p2"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestThresholdFacade(t *testing.T) {
	run, err := consensus.Run(consensus.ThresholdCommit(5, 3), consensus.MustInputs("11100"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := run.DecisionOf(0); !ok || d != consensus.Commit {
		t.Fatalf("3 of 5 ones with K=3 should commit: %v %v", d, ok)
	}
	run2, err := consensus.Run(consensus.ThresholdCommit(5, 4), consensus.MustInputs("11100"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := run2.DecisionOf(0); !ok || d != consensus.Abort {
		t.Fatalf("3 of 5 ones with K=4 should abort: %v %v", d, ok)
	}
}

// goroutineProbe wraps a protocol and records the largest goroutine count
// any Receive callback observes.
type goroutineProbe struct {
	consensus.Protocol
	max *int
}

func (p goroutineProbe) Receive(id consensus.ProcID, s consensus.State, m consensus.Message) consensus.State {
	if n := runtime.NumGoroutine(); n > *p.max {
		*p.max = n
	}
	return p.Protocol.Receive(id, s, m)
}

// TestExplorersRunOnTheCallingGoroutine asserts that exploration and scheme
// enumeration start no goroutines, whatever the deprecated Parallelism field
// says: the count a protocol callback observes mid-run, and the count after,
// do not exceed the count before the call (a goroutine of an earlier test may
// still be exiting, so the count can fall).
func TestExplorersRunOnTheCallingGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	during := 0
	probe := goroutineProbe{Protocol: consensus.Star(3), max: &during}
	if _, err := consensus.ExploreContext(context.Background(), probe,
		consensus.CheckOptions{MaxFailures: 1, Parallelism: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := consensus.EnumeratePatterns(probe, consensus.MustInputs("111"),
		consensus.SchemeOptions{Parallelism: 8}); err != nil {
		t.Fatal(err)
	}
	if during == 0 {
		t.Fatal("the probe's Receive never ran")
	}
	if after := runtime.NumGoroutine(); during > before || after > before {
		t.Fatalf("goroutines: %d before, %d observed mid-run, %d after; want no increase", before, during, after)
	}
}
