package checker

import (
	"context"
	"errors"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// panicProto wraps the tree protocol and panics in Receive the moment a
// failure notice is delivered. The panic value embeds the receiving state's
// key, so two runs panic with the same value only if they die at the same
// point of the walk.
type panicProto struct{ protocols.Tree }

func (p panicProto) Receive(id sim.ProcID, s sim.State, m sim.Message) sim.State {
	if m.Notice {
		panic("injected receive panic at " + s.Key())
	}
	return p.Tree.Receive(id, s, m)
}

func explorePanicValue(t *testing.T) (val any) {
	t.Helper()
	defer func() { val = recover() }()
	prob := problem(taxonomy.WT, taxonomy.TC)
	_, _ = ExploreContext(context.Background(), panicProto{protocols.Tree{Procs: 3}},
		Options{MaxFailures: 1, Problem: &prob})
	return nil
}

// TestExplorePanicPropagatesDeterministically asserts a protocol panic
// surfaces to Explore's caller, with the same value on every run.
func TestExplorePanicPropagatesDeterministically(t *testing.T) {
	base := explorePanicValue(t)
	if base == nil {
		t.Fatal("protocol panic was swallowed")
	}
	if val := explorePanicValue(t); val != base {
		t.Errorf("panic value %v on the second run, want %v", val, base)
	}
}

// cancelAfterProto wraps the star protocol and cancels the exploration's
// context after a fixed number of Receive calls, so cancellation lands in
// the middle of a run.
type cancelAfterProto struct {
	protocols.Star
	calls  *int
	after  int
	cancel context.CancelFunc
}

func (p cancelAfterProto) Receive(id sim.ProcID, s sim.State, m sim.Message) sim.State {
	if *p.calls++; *p.calls == p.after {
		p.cancel()
	}
	return p.Star.Receive(id, s, m)
}

// TestExploreCancellationMidRun cancels mid-exploration (rather than before
// it, which the differential suite covers) and asserts the partial-result
// contract: Interrupted status, context.Canceled error, some accepted
// configurations, and a non-empty frontier of accepted-but-unexpanded work.
func TestExploreCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	proto := cancelAfterProto{
		Star:   protocols.Star{Procs: 3},
		calls:  new(int),
		after:  2_000,
		cancel: cancel,
	}
	prob := problem(taxonomy.WT, taxonomy.TC)
	x, err := ExploreContext(ctx, proto, Options{MaxFailures: 2, Problem: &prob})
	if x == nil {
		t.Fatalf("nil exploration (err=%v)", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if x.Status != StatusInterrupted {
		t.Fatalf("status = %v, want interrupted", x.Status)
	}
	if x.NodeCount < 1 {
		t.Fatal("interrupted run lost its accepted prefix")
	}
	if x.FrontierSize < 1 {
		t.Fatal("interrupted mid-space but FrontierSize = 0")
	}
}
