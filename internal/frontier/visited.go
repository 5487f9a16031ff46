// Package frontier provides the visited set of the checker's
// configuration-space explorer and the scheme enumerator: SeqVisited, the
// single-goroutine fingerprint set behind both walks. Nothing the walks use
// locks. FPVisitedSet, a sharded set that is safe for concurrent use, and
// Owner remain for the benchmark's layer probes only.
package frontier

import "repro/internal/fingerprint"

// SeqVisited is the explorers' visited set: one plain map of 128-bit node
// fingerprints, with no sharding or locking, because the checker's and the
// scheme enumerator's walks are single-goroutine. A node belongs to the
// result exactly when Admit accepted it, so results depend only on the walk
// order. Two distinct nodes collide with probability ~2^-128 per pair; the
// test suites hold both walks to reference walks that identify nodes by
// their full canonical keys.
type SeqVisited struct {
	fp map[fingerprint.Digest]struct{}
}

// NewSeqVisited returns an empty set. The argument is deprecated: ignored;
// pinned by bench/probes.go.
func NewSeqVisited(Dedup) *SeqVisited {
	return &SeqVisited{fp: make(map[fingerprint.Digest]struct{})}
}

// Admit inserts the node's fingerprint, reporting whether it was new. The
// string argument is deprecated: ignored; pinned by bench/probes.go.
func (v *SeqVisited) Admit(fp fingerprint.Digest, _ string) bool {
	if _, ok := v.fp[fp]; ok {
		return false
	}
	v.fp[fp] = struct{}{}
	return true
}

// Seen reports whether the fingerprint has already been admitted, without
// admitting it. Expansion uses it to skip materializing successors that are
// already visited.
func (v *SeqVisited) Seen(fp fingerprint.Digest) bool {
	_, ok := v.fp[fp]
	return ok
}
