package scheme

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
)

// enumDigest renders an Enumeration canonically so byte-identity with the
// reference walk is a string comparison.
func enumDigest(en *Enumeration) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "status=%v visited=%d frontier=%d patterns=%d\n",
		en.Status, en.Visited, en.Frontier, en.Set.Len())
	for _, k := range en.Set.Keys() {
		sb.WriteString(k)
		sb.WriteByte('\n')
	}
	return sb.String()
}

type enumDiffCase struct {
	name  string
	proto sim.Protocol
	opts  Options
}

func enumDiffCases() []enumDiffCase {
	return []enumDiffCase{
		{"tree", protocols.Tree{Procs: 3}, Options{}},
		{"star", protocols.Star{Procs: 3}, Options{}},
		{"chain", protocols.Chain{Procs: 3}, Options{}},
		{"perverse", protocols.Perverse{}, Options{}},
		{"ackcommit", protocols.AckCommit{Procs: 3}, Options{}},
		// Full exchange is the densest failure-free space (127 nodes); a
		// mid-space budget exercises the deterministic exhaustion stop, so
		// the budget-exhausted partial is part of the differential matrix.
		{"fullexchange", protocols.FullExchange{Procs: 3}, Options{MaxNodes: 60}},
		{"haltingcommit", protocols.HaltingCommit{Procs: 3}, Options{}},
	}
}

// diffReference enumerates on the enumerator and on the reference walk
// (refEnumerate) and asserts the enumerator reproduces the reference byte
// for byte: the pattern set, visited count, frontier, status, and error.
func diffReference(ctx context.Context, t *testing.T, proto sim.Protocol, opts Options) *Enumeration {
	t.Helper()
	inputs := make([]sim.Bit, proto.N())
	for i := range inputs {
		inputs[i] = sim.One
	}
	ref, refErr := refEnumerate(ctx, proto, inputs, opts)
	en, err := EnumerateContext(ctx, proto, inputs, opts)
	if ref == nil || en == nil {
		t.Fatalf("nil enumeration: enumerator %v (err=%v), reference %v (err=%v)", en, err, ref, refErr)
	}
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Errorf("err = %v, reference err = %v", err, refErr)
	}
	if want, got := enumDigest(ref), enumDigest(en); got != want {
		t.Errorf("enumeration diverges from the reference walk\nreference:\n%s\nenumerator:\n%s", want, got)
	}
	return en
}

// TestEnumerateDifferential asserts that enumerating every library
// protocol's failure-free executions (all-ones inputs) yields the reference
// walk's Enumeration byte for byte: the pattern set, visited count,
// frontier, and status.
func TestEnumerateDifferential(t *testing.T) {
	for _, tc := range enumDiffCases() {
		t.Run(tc.name, func(t *testing.T) { diffReference(context.Background(), t, tc.proto, tc.opts) })
	}
}

// TestEnumerateDifferentialCancelled asserts a cancelled context cuts the
// enumerator's walk where it cuts the reference's, at the first dequeue: the
// same partial Enumeration (status, visited, frontier).
func TestEnumerateDifferentialCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	en := diffReference(ctx, t, protocols.Tree{Procs: 3}, Options{})
	if en.Status != StatusInterrupted || en.Visited < 1 || en.Frontier < 1 {
		t.Fatalf("cancelled enumeration: status %v, %d visited, %d frontier; want interrupted with its partial snapshot",
			en.Status, en.Visited, en.Frontier)
	}
}
