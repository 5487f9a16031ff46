package symmetry

import (
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/protocols"
	"repro/internal/sim"
)

// fuzzProtos are the symmetric topologies the fuzzer drives. Script bytes
// index into this table and into the enabled-event list at each step, so
// every corpus entry decodes to one deterministic partial run.
var fuzzProtos = []sim.Protocol{
	protocols.Tree{Procs: 3},
	protocols.Star{Procs: 3},
	protocols.FullExchange{Procs: 3},
	protocols.Star{Procs: 5},
	protocols.Tree{Procs: 7},
}

// canonKey returns the orbit-minimal key of a configuration: the minimum of
// Key over the identity and every group element: the canonical handle in
// full strings (modulo the decision ledger, which relabels covariantly and
// is exercised by the checker's differential suite).
func canonKey(c *sim.Config, perms []sim.ProcPerm) string {
	best := c.Key()
	for _, perm := range perms {
		pc, ok := sim.PermuteConfig(c, perm)
		if !ok {
			panic("fuzz: protocol state does not implement sim.Permuter")
		}
		if k := pc.Key(); k < best {
			best = k
		}
	}
	return best
}

// canonFP is the canonical handle the checker dedups on: the
// Digest.Less-minimal fingerprint over the orbit.
func canonFP(c *sim.Config, perms []sim.ProcPerm) fingerprint.Digest {
	best := c.Fingerprint()
	for _, perm := range perms {
		pc, ok := sim.PermuteConfig(c, perm)
		if !ok {
			panic("fuzz: protocol state does not implement sim.Permuter")
		}
		if fp := pc.Fingerprint(); fp.Less(best) {
			best = fp
		}
	}
	return best
}

// FuzzOrbitCanonical drives a random partial run of a symmetric protocol
// (deliveries, sends, and failures chosen by the script bytes) and checks,
// at every step, that the canonical handle is constant on the orbit: for
// every automorphism π, canon(π(c)) == canon(c), for the key-minimal and
// the fingerprint-minimal handle, on both the raw configuration and the
// dead-letter-erased view (the checker canonicalizes erased configurations
// under ReduceBoth; erasure and permutation must commute for that to be
// sound).
//
// It also pins the digest-level shortcuts to the materialized functions
// they replace in the checker: slot 1+i of sim.PermuteMemo's vector equals
// PermuteConfig(c, π_i).Fingerprint() and its slot 0 c.Fingerprint(),
// Config.ElidedFingerprint equals WithoutDeadBuffers().Fingerprint(), and
// the two compose in either order — the elided vector's slots are the erased
// view's. One memo lives for the whole run, so early steps take the miss
// path and later ones the hit path.
func FuzzOrbitCanonical(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(1), []byte{7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint8(2), []byte{1, 1, 2, 3, 5, 8, 13, 21})
	f.Add(uint8(3), []byte{0, 0, 0, 0, 9, 9, 9, 9})
	f.Add(uint8(4), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Fuzz(func(t *testing.T, sel uint8, script []byte) {
		proto := fuzzProtos[int(sel)%len(fuzzProtos)]
		perms := ForProtocol(proto)
		if len(perms) == 0 {
			t.Fatalf("%s: expected a non-trivial group", proto.Name())
		}
		n := procsOf(proto)
		if len(script) > 16 {
			script = script[:16]
		}
		inputs := make([]sim.Bit, n)
		for p := range inputs {
			if sel&(1<<(p%8)) != 0 {
				inputs[p] = 1
			}
		}
		c := sim.NewConfig(proto, inputs)
		memo := sim.NewPermuteMemo(perms)
		vec, evec := make([]fingerprint.Digest, memo.Width()), make([]fingerprint.Digest, memo.Width())
		check := func(c *sim.Config) {
			wantKey, wantFP := canonKey(c, perms), canonFP(c, perms)
			erased, wasErased := c.WithoutDeadBuffers()
			wantEK, wantEFP := canonKey(erased, perms), canonFP(erased, perms)
			if got, changed := c.ElidedFingerprint(); got != erased.Fingerprint() || changed != wasErased {
				t.Fatalf("ElidedFingerprint = %v, %v; WithoutDeadBuffers gives %v, %v", got, changed, erased.Fingerprint(), wasErased)
			}
			if _, ok := memo.Vector(vec, c, false); !ok || vec[0] != c.Fingerprint() {
				t.Fatalf("vector refused (ok=%v) or identity slot %v, want %v", ok, vec[0], c.Fingerprint())
			}
			if elided, ok := memo.Vector(evec, c, true); !ok || elided != wasErased || evec[0] != erased.Fingerprint() {
				t.Fatalf("elided vector: identity slot %v (elided=%v ok=%v), want %v (%v)", evec[0], elided, ok, erased.Fingerprint(), wasErased)
			}
			for i, perm := range perms {
				pc, ok := sim.PermuteConfig(c, perm)
				if !ok {
					t.Fatal("protocol state does not implement sim.Permuter")
				}
				if got := vec[1+i]; got != pc.Fingerprint() {
					t.Fatalf("digest-level fingerprint under %v = %v; PermuteConfig gives %v", perm, got, pc.Fingerprint())
				}
				pce, _ := sim.PermuteConfig(erased, perm)
				got := evec[1+i]
				if got != pce.Fingerprint() {
					t.Fatalf("erase-then-permute under %v = %v, materialized %v", perm, got, pce.Fingerprint())
				}
				if pefp, _ := pc.ElidedFingerprint(); got != pefp {
					t.Fatalf("permute-then-erase under %v = %v, erase-then-permute %v", perm, pefp, got)
				}
				if got := canonKey(pc, perms); got != wantKey {
					t.Fatalf("canonical key not orbit-invariant under %v:\n got %q\nwant %q", perm, got, wantKey)
				}
				if got := canonFP(pc, perms); got != wantFP {
					t.Fatalf("canonical fingerprint not orbit-invariant under %v", perm)
				}
				pe, _ := pc.WithoutDeadBuffers()
				if got := canonKey(pe, perms); got != wantEK {
					t.Fatalf("erased canonical key not orbit-invariant under %v:\n got %q\nwant %q", perm, got, wantEK)
				}
				if got := canonFP(pe, perms); got != wantEFP {
					t.Fatalf("erased canonical fingerprint not orbit-invariant under %v", perm)
				}
			}
		}
		check(c)
		var events []sim.Event
		failures := 0
		for _, b := range script {
			events = sim.AppendEnabled(events[:0], c)
			if failures < 2 {
				for p := 0; p < n; p++ {
					if !c.Faulty(sim.ProcID(p)) {
						events = append(events, sim.Event{Proc: sim.ProcID(p), Type: sim.Fail})
					}
				}
			}
			if len(events) == 0 {
				break
			}
			ev := events[int(b)%len(events)]
			if ev.Type == sim.Fail {
				failures++
			}
			next, _, err := sim.Apply(proto, c, ev)
			if err != nil {
				t.Fatalf("enabled event %v failed to apply: %v", ev, err)
			}
			c = next
			check(c)
		}
	})
}
