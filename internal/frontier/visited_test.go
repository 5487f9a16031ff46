package frontier

import (
	"strconv"
	"testing"

	"repro/internal/fingerprint"
)

// TestSeqVisited checks the admission contract: a fresh set has seen
// nothing, Admit reports new exactly once, and Seen never admits.
func TestSeqVisited(t *testing.T) {
	v := NewSeqVisited(DedupFingerprint)
	d1, d2 := fingerprint.OfString("a"), fingerprint.OfString("b")
	if v.Seen(d1) {
		t.Fatal("fresh set claims to have seen a node")
	}
	if !v.Admit(d1, "") || v.Admit(d1, "") {
		t.Fatal("Admit must report new exactly once")
	}
	if !v.Seen(d1) || v.Seen(d2) {
		t.Fatal("Seen disagrees with Admit history")
	}
}

// TestSeqVisitedAgainstMap holds the flat table to a map through several
// doublings: digests whose Lo collide (one probe chain), the zero digest
// (the empty-slot marker) and uniform ones, each admitted twice and probed
// with Seen before and after.
func TestSeqVisitedAgainstMap(t *testing.T) {
	v := NewSeqVisited(DedupFingerprint)
	want := make(map[fingerprint.Digest]bool)
	var ds []fingerprint.Digest
	for i := uint64(0); i < 64; i++ {
		ds = append(ds, fingerprint.Digest{Lo: 7, Hi: i}, fingerprint.Digest{Lo: i << 10, Hi: 1})
	}
	ds = append(ds, fingerprint.Digest{})
	for i := 0; i < 20*seqMinSlots; i++ {
		ds = append(ds, fingerprint.OfString(strconv.Itoa(i)))
	}
	for pass := 0; pass < 2; pass++ {
		for _, d := range ds {
			if v.Seen(d) != want[d] {
				t.Fatalf("pass %d: Seen(%v) = %v before admitting, want %v", pass, d, !want[d], want[d])
			}
			if v.Admit(d, "") == want[d] {
				t.Fatalf("pass %d: Admit(%v) disagrees with the map", pass, d)
			}
			want[d] = true
			if !v.Seen(d) {
				t.Fatalf("pass %d: %v not seen once admitted", pass, d)
			}
		}
	}
	if v.Seen(fingerprint.OfString("never admitted")) {
		t.Fatal("a digest never admitted is seen")
	}
	if v.n+1 != len(want) || 4*v.n > 3*len(v.slots) {
		t.Fatalf("%d digests in %d slots, want %d at a load of at most three quarters", v.n, len(v.slots), len(want)-1)
	}
}

// TestSeqVisitedReset: a reset set has seen nothing, the zero digest
// included, and admits everything anew in the table it grew before.
func TestSeqVisitedReset(t *testing.T) {
	v := NewSeqVisited(DedupFingerprint)
	ds := []fingerprint.Digest{{}}
	for i := 0; i < 2*seqMinSlots; i++ {
		ds = append(ds, fingerprint.OfString(strconv.Itoa(i)))
	}
	for _, d := range ds {
		v.Admit(d, "")
	}
	slots := len(v.slots)
	v.Reset()
	if len(v.slots) != slots {
		t.Fatalf("Reset resized the table from %d to %d slots", slots, len(v.slots))
	}
	for _, d := range ds {
		if v.Seen(d) || !v.Admit(d, "") {
			t.Fatalf("%v survived Reset", d)
		}
	}
}
