package frontier

import (
	"testing"

	"repro/internal/fingerprint"
)

// TestSeqVisited checks the admission contract on every engine: a fresh
// set has seen nothing, Admit reports new exactly once, and Seen never
// admits.
func TestSeqVisited(t *testing.T) {
	for _, mode := range []Dedup{DedupFingerprint, DedupVerified, DedupStrings} {
		v := NewSeqVisited(mode)
		d1, d2 := fingerprint.OfString("a"), fingerprint.OfString("b")
		if v.Seen(d1, "a") {
			t.Fatalf("%v: fresh set claims to have seen a node", mode)
		}
		if !v.Admit(d1, "a") || v.Admit(d1, "a") {
			t.Fatalf("%v: Admit must report new exactly once", mode)
		}
		if !v.Seen(d1, "a") || v.Seen(d2, "b") {
			t.Fatalf("%v: Seen disagrees with Admit history", mode)
		}
		if v.Len() != 1 || v.Collisions() != 0 {
			t.Fatalf("%v: Len = %d, Collisions = %d, want 1, 0", mode, v.Len(), v.Collisions())
		}
	}
}

// TestSeqVisitedVerified pins what verified mode adds: a second key under
// an occupied digest is a counted collision, and the colliding key is
// admitted as a distinct node rather than merged away.
func TestSeqVisitedVerified(t *testing.T) {
	v := NewSeqVisited(DedupVerified)
	d := fingerprint.OfString("shared")
	if !v.Admit(d, "k1") {
		t.Fatal("first Admit reported not-new")
	}
	if v.Seen(d, "k2") {
		t.Fatal("a different key under the same digest reads as seen")
	}
	if !v.Admit(d, "k2") {
		t.Fatal("colliding key was merged instead of admitted")
	}
	if v.Collisions() != 1 {
		t.Fatalf("collisions = %d, want 1", v.Collisions())
	}
	if v.Len() != 2 || !v.Seen(d, "k1") || !v.Seen(d, "k2") {
		t.Fatalf("Len = %d after a collision, want both keys kept", v.Len())
	}
	if v.Admit(d, "k2") || v.Collisions() != 1 {
		t.Fatal("re-admitting a collided key must be a plain duplicate")
	}
}
