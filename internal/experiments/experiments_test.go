package experiments

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestAllExperimentsQuick(t *testing.T) {
	reports := All(Options{Quick: true})
	if len(reports) != 9 {
		t.Fatalf("expected 9 experiments, got %d", len(reports))
	}
	seen := make(map[string]bool)
	for _, r := range reports {
		if seen[r.ID] {
			t.Errorf("duplicate experiment ID %s", r.ID)
		}
		seen[r.ID] = true
		if !r.OK {
			t.Errorf("%s (%s) failed:\n%s", r.ID, r.Artifact, strings.Join(r.Measured, "\n"))
		}
		if len(r.Measured) == 0 {
			t.Errorf("%s has no measurements", r.ID)
		}
		if !strings.Contains(r.String(), r.ID) {
			t.Errorf("%s rendering missing its ID", r.ID)
		}
	}
}

func TestE6BoundHolds(t *testing.T) {
	r := E6Theorem7(Options{Quick: true})
	if !r.OK {
		t.Fatalf("Theorem 7 bound violated:\n%s", strings.Join(r.Measured, "\n"))
	}
}

func TestE8Ordering(t *testing.T) {
	r := E8MessageComplexity(Options{Quick: true})
	if !r.OK {
		t.Fatalf("message-complexity shape violated:\n%s", strings.Join(r.Measured, "\n"))
	}
}

func TestAllExperimentsExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive experiments take minutes")
	}
	for _, r := range All(Options{}) {
		if !r.OK {
			t.Errorf("%s (%s) failed:\n%s", r.ID, r.Artifact, strings.Join(r.Measured, "\n"))
		}
	}
}

// TestE5CancelledIsPartial: E5's exhaustive witnesses honour
// Options.Context like every other experiment's passes. With the context
// already cancelled the report comes back at once (the full pass takes
// seconds), marked Partial, claiming neither ok nor any witness count.
func TestE5CancelledIsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	r := E5Lattice(Options{Context: ctx})
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled E5 took %v; its walks ignored the context", d)
	}
	if !r.Partial || r.OK {
		t.Errorf("cancelled E5: Partial=%v OK=%v, want a partial report with no ok claim", r.Partial, r.OK)
	}
	if out := r.String(); strings.Contains(out, "witnesses verified") || !strings.Contains(out, "[PARTIAL]") {
		t.Errorf("cancelled E5 renders as:\n%s", out)
	}
}

// TestE7CancelledIsPartial: E7's five walks run as concurrent cells, and
// each honours Options.Context. With the context already cancelled the
// report comes back at once, marked Partial, with no table: no row is
// claimed as measured, let alone as claimed.
func TestE7CancelledIsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	r := E7Theorem2(Options{Context: ctx})
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled E7 took %v; its walks ignored the context", d)
	}
	if !r.Partial || r.OK {
		t.Errorf("cancelled E7: Partial=%v OK=%v, want a partial report with no ok claim", r.Partial, r.OK)
	}
	if out := r.String(); strings.Contains(out, "as claimed") || !strings.Contains(out, "[PARTIAL]") {
		t.Errorf("cancelled E7 renders as:\n%s", out)
	}
}
