package consensus_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

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
	// Below two processors consensus is not a question: every sized
	// protocol refuses the size, and no library protocol needs more.
	for _, name := range consensus.ProtocolNames() {
		for _, n := range []int{-1, 0, 1, 2} {
			proto, err := consensus.ProtocolByName(name, n)
			var sizeErr *consensus.ProtocolSizeError
			switch fixed := name == "perverse" || name == "perverse-forgetful"; {
			case fixed || n == 2:
				if err != nil {
					t.Errorf("%s n=%d: %v", name, n, err)
				}
			case !errors.As(err, &sizeErr) || sizeErr.Name != name || sizeErr.N != n || proto != nil:
				t.Errorf("%s n=%d: got %v, %v; want a *ProtocolSizeError", name, n, proto, err)
			}
		}
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

// noticePanic wraps a protocol and panics in Receive the moment a failure
// notice is delivered, which every walk with a failure reaches.
type noticePanic struct{ consensus.Protocol }

func (p noticePanic) Receive(id consensus.ProcID, s consensus.State, m consensus.Message) consensus.State {
	if m.Notice {
		panic("notice delivered")
	}
	return p.Protocol.Receive(id, s, m)
}

// initPanic wraps a protocol whose processor 2 panics at Init on input 1.
type initPanic struct{ consensus.Protocol }

func (p initPanic) Init(id consensus.ProcID, input consensus.Bit, n int) consensus.State {
	if id == 2 && input == 1 {
		panic("init")
	}
	return p.Protocol.Init(id, input, n)
}

// TestExplorersLeaveNoGoroutines asserts that exploration and scheme
// enumeration, which run their shards and input vectors on GOMAXPROCS
// workers, leave none of them behind however they end: a complete walk, a
// walk cancelled mid-run, and a walk whose protocol panics — re-raised on
// the caller with the protocol's own value — for the checker and for Of.
// A worker that has just joined may still be on its way out, so the count
// is given a moment to settle; it may also fall, as a goroutine of an
// earlier test exits.
func TestExplorersLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	recovered := func(walk func()) (v any) {
		defer func() { v = recover() }()
		walk()
		return nil
	}
	if _, err := consensus.ExploreContext(context.Background(), consensus.Star(3), consensus.CheckOptions{MaxFailures: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer time.AfterFunc(20*time.Millisecond, cancel).Stop()
	if _, err := consensus.ExploreContext(ctx, consensus.Tree(4), consensus.CheckOptions{MaxFailures: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled walk returned %v, want context.Canceled", err)
	}
	if v := recovered(func() {
		consensus.ExploreContext(context.Background(), noticePanic{consensus.Star(3)}, consensus.CheckOptions{MaxFailures: 1})
	}); v != "notice delivered" {
		t.Fatalf("a panicking walk raised %#v, want the protocol's own value", v)
	}
	if _, err := consensus.SchemeOfContext(context.Background(), consensus.HaltingCommit(3), consensus.SchemeOptions{}); err != nil {
		t.Fatal(err)
	}
	if v := recovered(func() {
		consensus.SchemeOfContext(context.Background(), initPanic{consensus.HaltingCommit(3)}, consensus.SchemeOptions{})
	}); v != "init" {
		t.Fatalf("a panicking Of raised %#v, want the protocol's own value", v)
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Fatalf("goroutines: %d before, %d after; want no increase", before, after)
	}
}
