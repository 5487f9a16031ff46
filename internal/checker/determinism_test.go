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
	_, _ = CheckContext(context.Background(), panicProto{protocols.Tree{Procs: 3}},
		problem(taxonomy.WT, taxonomy.TC), Options{MaxFailures: 1})
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

// cancelAtDequeue is a context that cancels itself the after-th time it is
// asked whether it is done. The walk asks once per dequeue and nowhere else,
// so cancellation lands at a known node in the middle of a run — whatever the
// transition cache does to the number of protocol callbacks.
type cancelAtDequeue struct {
	context.Context
	cancel context.CancelFunc
	polls  int
	after  int
}

func (c *cancelAtDequeue) Err() error {
	if c.polls++; c.polls == c.after {
		c.cancel()
	}
	return c.Context.Err()
}

// TestExploreCancellationMidRun cancels mid-exploration (rather than before
// it, which the differential suite covers) and asserts the partial-result
// contract: Interrupted status, context.Canceled error, and a cut strictly
// inside the space — some accepted configurations but not all of them, and a
// non-empty frontier of accepted-but-unexpanded work.
func TestExploreCancellationMidRun(t *testing.T) {
	const starMF2Nodes = 39_503 // the complete star(3) mf2 space
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelAtDequeue{Context: inner, cancel: cancel, after: 2_000}
	x, err := CheckContext(ctx, protocols.Star{Procs: 3}, problem(taxonomy.WT, taxonomy.TC), Options{MaxFailures: 2})
	if x == nil {
		t.Fatalf("nil exploration (err=%v)", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if x.Status != StatusInterrupted {
		t.Fatalf("status = %v, want interrupted", x.Status)
	}
	if ctx.polls != ctx.after {
		t.Fatalf("walk polled the context %d times, want it to stop at poll %d", ctx.polls, ctx.after)
	}
	if x.NodeCount < ctx.after || x.NodeCount >= starMF2Nodes {
		t.Fatalf("NodeCount = %d, want a cut strictly inside the space: at least the %d dequeued, fewer than %d",
			x.NodeCount, ctx.after, starMF2Nodes)
	}
	if x.FrontierSize < 1 {
		t.Fatal("interrupted mid-space but FrontierSize = 0")
	}
}
