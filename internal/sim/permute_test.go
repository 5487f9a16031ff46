package sim_test

import (
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/symmetry"
)

// warmFullExchangeSucc returns a fullexchange(3) successor as the explorer
// sees one: derived by Apply from a fingerprinted root, so its incremental
// cache is warm, with in-flight messages and — p0 having crashed after p1
// and p2 wrote to it — dead letters.
func warmFullExchangeSucc(t *testing.T) (*sim.Config, []sim.ProcPerm) {
	t.Helper()
	proto := protocols.FullExchange{Procs: 3}
	c := sim.NewConfig(proto, []sim.Bit{sim.One, sim.Zero, sim.One})
	c.Fingerprint()
	for _, ev := range []sim.Event{
		{Proc: 1, Type: sim.SendStepEvent},
		{Proc: 2, Type: sim.SendStepEvent},
		{Proc: 0, Type: sim.SendStepEvent},
		{Proc: 0, Type: sim.Fail},
	} {
		next, _, err := sim.Apply(proto, c, ev)
		if err != nil {
			t.Fatal(err)
		}
		c = next
	}
	if len(c.Buffers[0]) == 0 {
		t.Fatal("setup built no dead letters")
	}
	return c, symmetry.ForProtocol(proto)
}

// TestAllocsPermutedFingerprint: once the memo has seen a configuration's
// components, its vector — its own fingerprint and those of all its S_3
// relabellings, raw and with dead letters erased — is filled without a
// single allocation, and each relabelled slot equals the materialized
// fingerprint.
func TestAllocsPermutedFingerprint(t *testing.T) {
	c, perms := warmFullExchangeSucc(t)
	if len(perms) != 5 {
		t.Fatalf("fullexchange(3) has %d non-identity automorphisms, want 5", len(perms))
	}
	memo := sim.NewPermuteMemo(perms)
	vec := make([]fingerprint.Digest, memo.Width())
	erased, _ := c.WithoutDeadBuffers()
	for _, elide := range []bool{false, true} {
		base := c
		if elide {
			base = erased
		}
		if elided, ok := memo.Vector(vec, c, elide); !ok || elided != elide || vec[0] != base.Fingerprint() {
			t.Fatalf("elide=%v: identity slot %v (elided=%v ok=%v), want %v", elide, vec[0], elided, ok, base.Fingerprint())
		}
		for i, perm := range perms {
			if pc, _ := sim.PermuteConfig(base, perm); vec[1+i] != pc.Fingerprint() {
				t.Fatalf("perm %v elide=%v: digest-level %v, materialized %v", perm, elide, vec[1+i], pc.Fingerprint())
			}
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		memo.Vector(vec, c, false)
		memo.Vector(vec, c, true)
	})
	if allocs != 0 {
		t.Errorf("vectors over S_3 allocate %.1f times per run on memo hits, want 0", allocs)
	}
}

// TestAllocsElidedFingerprint: the erased view's fingerprint is pure digest
// subtraction on a warm configuration.
func TestAllocsElidedFingerprint(t *testing.T) {
	c, _ := warmFullExchangeSucc(t)
	erased, _ := c.WithoutDeadBuffers()
	if got, changed := c.ElidedFingerprint(); !changed || got != erased.Fingerprint() {
		t.Fatalf("ElidedFingerprint = %v, %v; want %v, true", got, changed, erased.Fingerprint())
	}
	allocs := testing.AllocsPerRun(200, func() {
		c.ElidedFingerprint()
	})
	if allocs != 0 {
		t.Errorf("ElidedFingerprint allocates %.1f times per run, want 0", allocs)
	}
}
