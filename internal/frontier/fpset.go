// This file holds the names that only the benchmark's layer probes still
// call: Dedup, Owner and FPVisitedSet.

package frontier

import (
	"math/bits"
	"sync"

	"repro/internal/fingerprint"
)

// Dedup is the type of NewSeqVisited's ignored argument, DedupFingerprint
// its one value.
//
// Deprecated: the explorers have one engine; pinned by bench/probes.go.
type Dedup int

// Deprecated: pinned by bench/probes.go.
const DedupFingerprint Dedup = 0

// fpShards is FPVisitedSet's shard count. A power of two keeps the index
// computation a mask.
const fpShards = 64

// shardIndexFP maps a digest to a shard. Digest bits are already uniform,
// so masking the low bits suffices.
func shardIndexFP(d fingerprint.Digest) int {
	return int(d.Lo & (fpShards - 1))
}

// Owner maps a digest to one of workers contiguous shards of the digest
// space by multiply-shift on the high 64 bits: total and stable for any
// worker count. No explorer calls it; it is kept because the frozen
// bench/probes.go times it (frontier.owner_ns).
func Owner(d fingerprint.Digest, workers int) int {
	if workers <= 1 {
		return 0
	}
	hi, _ := bits.Mul64(d.Hi, uint64(workers))
	return int(hi)
}

// FPVisitedSet is a set of 16-byte digests sharded by digest bits; Seen and
// Add are independently safe for concurrent use. No explorer calls it — the
// walks are single-goroutine and use SeqVisited; it is kept because the
// frozen bench/probes.go adds to it from GOMAXPROCS goroutines
// (frontier.fpset_add_ns_p*), and it is the package's one concurrent
// container.
type FPVisitedSet struct {
	shards [fpShards]fpVisitShard
}

type fpVisitShard struct {
	mu sync.RWMutex
	m  map[fingerprint.Digest]struct{} // ccvet:guardedby mu
}

// NewFPVisitedSet returns an empty set.
func NewFPVisitedSet() *FPVisitedSet {
	v := &FPVisitedSet{}
	for i := range v.shards {
		v.shards[i].m = make(map[fingerprint.Digest]struct{})
	}
	return v
}

// Seen reports whether the digest has been added.
func (v *FPVisitedSet) Seen(d fingerprint.Digest) bool {
	sh := &v.shards[shardIndexFP(d)]
	sh.mu.RLock()
	_, ok := sh.m[d]
	sh.mu.RUnlock()
	return ok
}

// Add inserts the digest, reporting whether it was new.
func (v *FPVisitedSet) Add(d fingerprint.Digest) bool {
	sh := &v.shards[shardIndexFP(d)]
	sh.mu.Lock()
	_, ok := sh.m[d]
	if !ok {
		sh.m[d] = struct{}{}
	}
	sh.mu.Unlock()
	return !ok
}

// Len returns the number of digests added.
func (v *FPVisitedSet) Len() int {
	n := 0
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
