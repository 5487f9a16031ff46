// Package frontier provides the visited set of the checker's
// configuration-space explorer and the scheme enumerator: SeqVisited, the
// single-goroutine fingerprint set behind both walks. Nothing the walks use
// locks. FPVisitedSet, a sharded set that is safe for concurrent use, and
// Owner remain for the benchmark's layer probes only.
package frontier

import "repro/internal/fingerprint"

// SeqVisited is the explorers' visited set: a flat, linearly probed table
// of 128-bit node fingerprints (TLC's FPSet), with no sharding or locking,
// because the checker's and the scheme enumerator's walks are
// single-goroutine. Fingerprint bits are already uniform, so a slot is
// indexed by the low bits of Lo and a probe compares 16 bytes — no hashing,
// no per-entry allocation. A node belongs to the result exactly when Admit
// accepted it, so results depend only on the walk order. Two distinct nodes
// collide with probability ~2^-128 per pair; the test suites hold both walks
// to reference walks that identify nodes by their full canonical keys.
type SeqVisited struct {
	// slots has a power-of-two length; the zero digest marks an empty slot,
	// so the zero fingerprint itself is recorded in zero instead.
	slots []fingerprint.Digest
	n     int // fingerprints in slots
	zero  bool
}

// seqMinSlots is a fresh table's size.
const seqMinSlots = 1 << 10

// NewSeqVisited returns an empty set. The argument is deprecated: ignored;
// pinned by bench/probes.go.
func NewSeqVisited(Dedup) *SeqVisited {
	return &SeqVisited{slots: make([]fingerprint.Digest, seqMinSlots)}
}

// Admit inserts the node's fingerprint, reporting whether it was new. The
// string argument is deprecated: ignored; pinned by bench/probes.go.
func (v *SeqVisited) Admit(fp fingerprint.Digest, _ string) bool {
	if fp.IsZero() {
		added := !v.zero
		v.zero = true
		return added
	}
	i, found := v.find(fp)
	if found {
		return false
	}
	v.slots[i] = fp
	v.n++
	// Grow at a load of three quarters: a probe for an absent fingerprint
	// then reads at most 8.5 slots on average, a hit 2.5 — two or three
	// cache lines — and a table holds 21 to 43 bytes per fingerprint, about
	// what a Go map of 16-byte keys holds.
	if 4*v.n > 3*len(v.slots) {
		v.grow()
	}
	return true
}

// Seen reports whether the fingerprint has already been admitted, without
// admitting it. Expansion uses it to skip materializing successors that are
// already visited.
func (v *SeqVisited) Seen(fp fingerprint.Digest) bool {
	if fp.IsZero() {
		return v.zero
	}
	_, found := v.find(fp)
	return found
}

// Reset empties the set, keeping its table for the next walk.
func (v *SeqVisited) Reset() {
	clear(v.slots)
	v.n, v.zero = 0, false
}

// find returns fp's slot when it is in the table, else the empty slot where
// it would go. fp is not zero.
func (v *SeqVisited) find(fp fingerprint.Digest) (int, bool) {
	mask := uint64(len(v.slots) - 1)
	for i := fp.Lo & mask; ; i = (i + 1) & mask {
		switch v.slots[i] {
		case fp:
			return int(i), true
		case fingerprint.Digest{}:
			return int(i), false
		}
	}
}

// grow doubles the table and reinserts every fingerprint.
func (v *SeqVisited) grow() {
	old := v.slots
	v.slots = make([]fingerprint.Digest, 2*len(old))
	for _, fp := range old {
		if !fp.IsZero() {
			i, _ := v.find(fp)
			v.slots[i] = fp
		}
	}
}
