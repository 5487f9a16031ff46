package checker

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// TestExploreRejectsBadFailProcs: a FailProcs entry outside [0,N) is caller
// input and must come back as an error, not an index panic.
func TestExploreRejectsBadFailProcs(t *testing.T) {
	for _, p := range []sim.ProcID{3, -1} {
		x, err := Explore(protocols.Tree{Procs: 3}, Options{FailProcs: []sim.ProcID{p}})
		if x != nil || err == nil || !strings.Contains(err.Error(), "out of range [0,3)") {
			t.Errorf("FailProcs [%d]: exploration %v, err %v; want a range error", p, x, err)
		}
	}
}

// TestExploreRejectsNegativeBudgets: a negative budget is refused by name,
// not read as a default or as a budget that ran out. MaxFailures < 0 alone
// keeps its meaning, N−1.
func TestExploreRejectsNegativeBudgets(t *testing.T) {
	for field, opts := range map[string]Options{
		"MaxNodes":        {MaxNodes: -5},
		"OmissionBudget":  {OmissionBudget: -1},
		"MobileOmissions": {OmissionBudget: 1, MobileOmissions: -2},
	} {
		x, err := Explore(protocols.Tree{Procs: 3}, opts)
		if x != nil || err == nil || !strings.Contains(err.Error(), field+" is negative") {
			t.Errorf("negative %s: exploration %v, err %v; want no exploration and an error naming the field", field, x != nil, err)
		}
	}
	if _, err := Explore(protocols.Tree{Procs: 3}, Options{MaxFailures: -1, MaxNodes: 100}); !errors.As(err, new(*BudgetError)) {
		t.Errorf("MaxFailures -1 with a budget of 100: err %v, want the N−1 space to exhaust it", err)
	}
}

func TestCancelledExploreReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x, err := ExploreContext(ctx, protocols.Tree{Procs: 3}, Options{MaxFailures: 2})
	if x == nil {
		t.Fatal("cancelled exploration must still return the partial Exploration")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if x.Status != StatusInterrupted || !x.Status.Partial() {
		t.Fatalf("status = %v, want interrupted (partial)", x.Status)
	}
	// Consistency of the partial snapshot: the visited count covers at
	// least the recorded root, and the unexpanded frontier is reported.
	if x.NodeCount < 1 || x.FrontierSize < 1 {
		t.Fatalf("partial snapshot inconsistent: %d nodes, %d frontier", x.NodeCount, x.FrontierSize)
	}
}

// TestBudgetExhaustionKeepsPartialResults pins the graceful-degradation
// contract: hitting MaxNodes returns the partial exploration — including
// violations already found — instead of discarding it. The budget is chosen
// below the star protocol's full space (39 503 nodes) but far enough in that
// breadth-first order has already crossed WT-TC violations, so the run is
// exhausted with violations in hand.
func TestBudgetExhaustionKeepsPartialResults(t *testing.T) {
	x, err := CheckContext(context.Background(), protocols.Star{Procs: 3},
		problem(taxonomy.WT, taxonomy.TC),
		Options{MaxFailures: 2, MaxNodes: 36_000})
	if x == nil {
		t.Fatal("exhausted exploration must still return the partial Exploration")
	}
	var budget *BudgetError
	if !errors.As(err, &budget) || budget.Nodes != 36_000 {
		t.Fatalf("err = %v, want *BudgetError with Nodes=36000", err)
	}
	if x.Status != StatusExhausted || !x.Status.Partial() {
		t.Fatalf("status = %v, want exhausted (partial)", x.Status)
	}
	// The budget is exact: the exploration accepts MaxNodes configurations
	// and stops deterministically at the first rejected one.
	if x.NodeCount != 36_000 {
		t.Fatalf("NodeCount = %d, want exactly the budget", x.NodeCount)
	}
	if x.FrontierSize == 0 {
		t.Fatal("exhausted mid-space but FrontierSize = 0")
	}
	if len(x.Violations) == 0 {
		t.Fatal("violations found before exhaustion were lost")
	}
}

// TestBudgetExhaustionExact pins the exact-MaxNodes contract: the walk
// accepts exactly MaxNodes configurations, reports Exhausted, and leaves a
// non-empty frontier. The budget cut lands mid-space for star at two
// failures, so the stop happens in the middle of a node's successors, not
// at a level boundary.
func TestBudgetExhaustionExact(t *testing.T) {
	const budget = 6_000
	var log []admission
	x, err := CheckContext(context.Background(), protocols.Star{Procs: 3},
		problem(taxonomy.WT, taxonomy.TC),
		observing(Options{MaxFailures: 2, MaxNodes: budget}, &log))
	if x == nil {
		t.Fatal("exhausted exploration must still return the partial Exploration")
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Nodes != budget {
		t.Fatalf("err = %v, want *BudgetError with Nodes=%d", err, budget)
	}
	if x.Status != StatusExhausted {
		t.Fatalf("status = %v, want exhausted", x.Status)
	}
	if x.NodeCount != budget {
		t.Fatalf("NodeCount = %d, want exactly the budget %d", x.NodeCount, budget)
	}
	if len(log) != budget {
		t.Fatalf("%d admissions observed, want exactly the budget %d", len(log), budget)
	}
	if x.FrontierSize == 0 {
		t.Fatal("exhausted mid-space but FrontierSize = 0")
	}
}

func TestCompleteExplorationHasCompleteStatus(t *testing.T) {
	x := mustCheck(t, protocols.Tree{Procs: 3}, problem(taxonomy.WT, taxonomy.TC), Options{MaxFailures: 1})
	if x.Status != StatusComplete || x.Status.Partial() {
		t.Fatalf("status = %v, want complete", x.Status)
	}
	if x.FrontierSize != 0 {
		t.Fatalf("complete exploration left %d frontier nodes", x.FrontierSize)
	}
}

// TestSafetyReportsPartial: "0 unsafe" over the visited prefix of a budget-cut
// exploration is not Theorem 2's conclusion, and the report must say which of
// the two it is.
func TestSafetyReportsPartial(t *testing.T) {
	x, err := Explore(protocols.Tree{Procs: 3}, Options{MaxFailures: 2, MaxNodes: 5000})
	var be *BudgetError
	if x == nil || !errors.As(err, &be) {
		t.Fatalf("exploration %v, err %v; want the budget cut", x, err)
	}
	if rep := x.Safety(); !rep.Partial || rep.TotalStates != 167 || !rep.AllSafe() {
		t.Errorf("prefix of 5000 nodes: Partial=%v, %d operational states, %d unsafe; want a partial report over 167 safe states",
			rep.Partial, rep.TotalStates, len(rep.Unsafe))
	}
	x, err = Explore(protocols.Tree{Procs: 3}, Options{MaxFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep := x.Safety(); rep.Partial {
		t.Error("complete exploration reports a partial safety analysis")
	}
}
