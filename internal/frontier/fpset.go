// This file holds the dedup engine selector and the fingerprint-keyed
// sharded structures, which store 16-byte fingerprint.Digest keys instead
// of full canonical strings.

package frontier

import (
	"math/bits"
	"sync"

	"repro/internal/fingerprint"
)

// Dedup selects how an explorer deduplicates visited nodes.
type Dedup int

const (
	// DedupFingerprint (the default) admits nodes by 128-bit fingerprint
	// alone. Two distinct nodes collide only with probability ~2^-128 per
	// pair; canonical strings are never built for dedup.
	DedupFingerprint Dedup = iota
	// DedupVerified admits by fingerprint but verifies every fingerprint
	// hit against the stored canonical key, so a collision downgrades to a
	// counted event (and the colliding node is explored, not dropped).
	DedupVerified
	// DedupStrings is the reference engine: admission by full canonical
	// key, collision-proof and allocation-heavy. The differential suites
	// pit the other modes against it.
	DedupStrings
)

// String names the mode.
func (d Dedup) String() string {
	switch d {
	case DedupFingerprint:
		return "fingerprint"
	case DedupVerified:
		return "verified"
	case DedupStrings:
		return "strings"
	default:
		return "invalid"
	}
}

// shardIndexFP maps a digest to a shard. Digest bits are already uniform,
// so masking the low bits suffices.
func shardIndexFP(d fingerprint.Digest) int {
	return int(d.Lo & (numShards - 1))
}

// Owner maps a digest to one of workers contiguous shards of the digest
// space by multiply-shift on the high 64 bits: total and stable for any
// worker count. Pinned by bench/probes.go (frontier.owner_ns).
func Owner(d fingerprint.Digest, workers int) int {
	if workers <= 1 {
		return 0
	}
	hi, _ := bits.Mul64(d.Hi, uint64(workers))
	return int(hi)
}

// FPVisitedSet is a set of 16-byte digests sharded by digest bits; Seen and
// Add are independently safe for concurrent use. Pinned by bench/probes.go
// (frontier.fpset_add_ns_p*, which adds from GOMAXPROCS goroutines).
type FPVisitedSet struct {
	shards [numShards]fpVisitShard
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

// FPShardedMap is ShardedMap keyed by fingerprint, for commutative
// concurrent aggregation under 16-byte keys.
type FPShardedMap[V any] struct {
	shards [numShards]fpMapShard[V]
}

type fpMapShard[V any] struct {
	mu sync.Mutex
	m  map[fingerprint.Digest]V // ccvet:guardedby mu
}

// NewFPShardedMap returns an empty map.
func NewFPShardedMap[V any]() *FPShardedMap[V] {
	s := &FPShardedMap[V]{}
	for i := range s.shards {
		s.shards[i].m = make(map[fingerprint.Digest]V)
	}
	return s
}

// Update applies fn to the value under d while holding the shard lock. fn
// receives the zero value if d is absent and its return value is stored.
// fn must not touch the FPShardedMap (the shard lock is held).
func (s *FPShardedMap[V]) Update(d fingerprint.Digest, fn func(V) V) {
	sh := &s.shards[shardIndexFP(d)]
	sh.mu.Lock()
	sh.m[d] = fn(sh.m[d])
	sh.mu.Unlock()
}

// Get returns the value under d.
func (s *FPShardedMap[V]) Get(d fingerprint.Digest) (V, bool) {
	sh := &s.shards[shardIndexFP(d)]
	sh.mu.Lock()
	v, ok := sh.m[d]
	sh.mu.Unlock()
	return v, ok
}

// GetOrInsert returns the value under d, inserting the result of compute
// on first use. compute runs outside the shard lock and may race with
// another inserter; the first stored value wins and is returned, so
// compute must be deterministic for a given digest.
func (s *FPShardedMap[V]) GetOrInsert(d fingerprint.Digest, compute func() V) V {
	sh := &s.shards[shardIndexFP(d)]
	sh.mu.Lock()
	v, ok := sh.m[d]
	sh.mu.Unlock()
	if ok {
		return v
	}
	fresh := compute()
	sh.mu.Lock()
	if v, ok = sh.m[d]; !ok {
		sh.m[d] = fresh
		v = fresh
	}
	sh.mu.Unlock()
	return v
}

// Len returns the number of digests.
func (s *FPShardedMap[V]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
