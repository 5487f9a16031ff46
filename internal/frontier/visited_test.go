package frontier

import (
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
