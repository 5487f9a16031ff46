// Package frontier provides the visited set of the checker's
// configuration-space explorer and the scheme enumerator: SeqVisited, the
// single-goroutine set behind both walks, with its three dedup engines
// (Dedup). Nothing the walks use locks. FPVisitedSet, a sharded set that is
// safe for concurrent use, and Owner remain for the benchmark's layer probes
// only.
package frontier

import "repro/internal/fingerprint"

// SeqVisited is the explorers' visited set: one plain map per dedup engine,
// with no sharding or locking, because the checker's and the scheme
// enumerator's walks are single-goroutine. A node belongs to the result
// exactly when Admit accepted it, so results depend only on the walk order.
// The name and the NewSeqVisited/Admit signatures are pinned by
// bench/probes.go.
type SeqVisited struct {
	mode       Dedup
	fp         map[fingerprint.Digest]struct{}
	keys       map[string]struct{}
	verified   map[fingerprint.Digest][]string
	collisions int64
}

// NewSeqVisited returns an empty set for the given dedup mode.
func NewSeqVisited(mode Dedup) *SeqVisited {
	v := &SeqVisited{mode: mode}
	switch mode {
	case DedupFingerprint:
		v.fp = make(map[fingerprint.Digest]struct{})
	case DedupVerified:
		v.verified = make(map[fingerprint.Digest][]string)
	default:
		v.keys = make(map[string]struct{})
	}
	return v
}

// Admit inserts the node's dedup handle, reporting whether it was new.
// Verified mode counts a digest already holding a different key as a
// collision and admits the colliding key as a distinct node.
func (v *SeqVisited) Admit(fp fingerprint.Digest, key string) bool {
	switch v.mode {
	case DedupFingerprint:
		if _, ok := v.fp[fp]; ok {
			return false
		}
		v.fp[fp] = struct{}{}
		return true
	case DedupVerified:
		keys := v.verified[fp]
		for _, k := range keys {
			if k == key {
				return false
			}
		}
		if len(keys) > 0 {
			v.collisions++
		}
		v.verified[fp] = append(keys, key)
		return true
	default:
		if _, ok := v.keys[key]; ok {
			return false
		}
		v.keys[key] = struct{}{}
		return true
	}
}

// Seen reports whether the node's dedup handle has already been admitted,
// without admitting it. Expansion uses it to skip materializing successors
// that are already visited.
func (v *SeqVisited) Seen(fp fingerprint.Digest, key string) bool {
	switch v.mode {
	case DedupFingerprint:
		_, ok := v.fp[fp]
		return ok
	case DedupVerified:
		for _, k := range v.verified[fp] {
			if k == key {
				return true
			}
		}
		return false
	default:
		_, ok := v.keys[key]
		return ok
	}
}

// Len returns the number of admitted nodes.
func (v *SeqVisited) Len() int {
	switch v.mode {
	case DedupFingerprint:
		return len(v.fp)
	case DedupVerified:
		n := 0
		for _, keys := range v.verified { //ccvet:ignore detrange summing lengths; order is unobservable
			n += len(keys)
		}
		return n
	default:
		return len(v.keys)
	}
}

// Collisions returns the number of verified fingerprint collisions.
func (v *SeqVisited) Collisions() int64 { return v.collisions }
