// Package frontier provides visited sets and small sharded containers for
// the checker's configuration-space explorer and the scheme enumerator:
// SeqVisited, the single-goroutine visited set behind both walks with its
// three dedup engines (Dedup); a string interner; and sharded maps keyed by
// string or by fingerprint for commutative aggregation. The interner and
// the sharded maps lock per shard and are safe for concurrent use; the
// explorers call them from one goroutine.
package frontier

import "sync"

// numShards is the shard count for every sharded container here. A power of
// two keeps the index computation a mask.
const numShards = 64

// shardIndex hashes a key to a shard with FNV-1a.
func shardIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h & (numShards - 1))
}

// Interner deduplicates strings across goroutines: equal keys computed by
// different workers collapse to one retained copy, which keeps the
// aggregated state maps allocation-lean (a state key is retained once
// however many million configurations it occurs in).
type Interner struct {
	shards [numShards]internShard
}

type internShard struct {
	mu sync.RWMutex
	m  map[string]string // ccvet:guardedby mu
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	in := &Interner{}
	for i := range in.shards {
		in.shards[i].m = make(map[string]string)
	}
	return in
}

// Intern returns the canonical copy of s, storing s itself on first use.
func (in *Interner) Intern(s string) string {
	sh := &in.shards[shardIndex(s)]
	sh.mu.RLock()
	c, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return c
	}
	sh.mu.Lock()
	if c, ok = sh.m[s]; !ok {
		sh.m[s] = s
		c = s
	}
	sh.mu.Unlock()
	return c
}

// ShardedMap is a string-keyed map sharded by key hash, for commutative
// aggregation: values are updated under per-shard mutexes, and content is
// deterministic as long as every update is a set-union-style operation
// whose result is independent of update order.
type ShardedMap[V any] struct {
	shards [numShards]mapShard[V]
}

type mapShard[V any] struct {
	mu sync.Mutex
	m  map[string]V // ccvet:guardedby mu
}

// NewShardedMap returns an empty map.
func NewShardedMap[V any]() *ShardedMap[V] {
	s := &ShardedMap[V]{}
	for i := range s.shards {
		s.shards[i].m = make(map[string]V)
	}
	return s
}

// Update applies fn to the value under key while holding the shard lock. fn
// receives the zero value if the key is absent and its return value is
// stored. fn must not touch the ShardedMap (the shard lock is held).
func (s *ShardedMap[V]) Update(key string, fn func(V) V) {
	sh := &s.shards[shardIndex(key)]
	sh.mu.Lock()
	sh.m[key] = fn(sh.m[key])
	sh.mu.Unlock()
}

// Get returns the value under key.
func (s *ShardedMap[V]) Get(key string) (V, bool) {
	sh := &s.shards[shardIndex(key)]
	sh.mu.Lock()
	v, ok := sh.m[key]
	sh.mu.Unlock()
	return v, ok
}

// Len returns the number of keys.
func (s *ShardedMap[V]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Snapshot merges the shards into one plain map.
func (s *ShardedMap[V]) Snapshot() map[string]V {
	out := make(map[string]V, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, v := range sh.m { //ccvet:ignore detrange keyed copy into a map; order is unobservable
			out[k] = v
		}
		sh.mu.Unlock()
	}
	return out
}
