package checker

import (
	"math/bits"

	"repro/internal/sim"
)

// bitset is a growable set of small non-negative integers. It grows by
// whole words on demand, so nothing about it assumes a population that
// fits one machine word.
type bitset []uint64

func (b *bitset) set(i int32) {
	w := int(i >> 6)
	if w >= len(*b) {
		*b = append(*b, make([]uint64, w+1-len(*b))...)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// next returns the smallest member ≥ i, or −1 when there is none.
func (b bitset) next(i int) int {
	for w := i >> 6; w < len(b); w++ {
		word := b[w]
		if w == i>>6 {
			word &^= 1<<(uint(i)&63) - 1
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// stateCensus is what the walk knows about one accessible local state, in
// integers: StateInfo's three sets as bitsets over processors, root input
// vectors and state ids. finalize turns it into the public StateInfo.
type stateCensus struct {
	sample          sim.State // from the first admitted configuration holding the state
	procs           bitset
	inputs          bitset
	conc            bitset
	seenEmptyBuffer bool
}

// slabNodes is how many configurations' worth of state ids one slab chunk
// holds.
const slabNodes = 1024

// stateIDsOf returns the ids of one admitted configuration's local states,
// giving a state admitted for the first time the next id, with its key and
// its census entry. A state is identified by the digest the configuration
// already caches; a key string is built once per distinct state. The ids are
// carved from the id slab — pointer-free memory the collector never scans —
// and become the ConfigRecord's StateIdx.
func (e *explorer) stateIDsOf(nd *node) []int32 {
	if len(e.slab) < e.n {
		e.slab = make([]int32, slabNodes*e.n)
	}
	ids := e.slab[:e.n:e.n]
	e.slab = e.slab[e.n:]
	for p := range ids {
		d := nd.cfg.StateDigestAt(p)
		id, ok := e.stateID[d]
		if !ok {
			id = int32(len(e.census))
			e.stateID[d] = id
			state := nd.cfg.States[p]
			e.x.stateKeys = append(e.x.stateKeys, state.Key())
			e.census = append(e.census, stateCensus{sample: state})
		}
		ids[p] = id
	}
	return ids
}

// censusAdd folds one accepted configuration, given by the ids of its local
// states, into the state census.
func (e *explorer) censusAdd(nd *node, ids []int32) {
	for p, id := range ids {
		c := &e.census[id]
		c.procs.set(int32(p))
		c.inputs.set(nd.vecIdx)
		if len(nd.cfg.Buffers[p]) == 0 {
			c.seenEmptyBuffer = true
		}
		// Concurrency sets: every pair of states in this configuration is
		// mutually concurrent.
		for q, other := range ids {
			if q != p {
				c.conc.set(other)
			}
		}
	}
}

// publishCensus builds the public States map from the integer census, once:
// the same Procs, Inputs and Conc sets, keyed by the same strings, that
// per-node map updates used to accumulate.
func (e *explorer) publishCensus() map[string]*StateInfo {
	keys := e.x.stateKeys
	states := make(map[string]*StateInfo, len(e.census))
	for id := range e.census {
		c := &e.census[id]
		si := &StateInfo{
			Key:             keys[id],
			Sample:          c.sample,
			Procs:           make(map[sim.ProcID]struct{}, c.procs.count()),
			Inputs:          make(map[string]struct{}, c.inputs.count()),
			Conc:            make(map[string]struct{}, c.conc.count()),
			SeenEmptyBuffer: c.seenEmptyBuffer,
		}
		for p := c.procs.next(0); p >= 0; p = c.procs.next(p + 1) {
			si.Procs[sim.ProcID(p)] = struct{}{}
		}
		for v := c.inputs.next(0); v >= 0; v = c.inputs.next(v + 1) {
			si.Inputs[e.vecs[v]] = struct{}{}
		}
		for o := c.conc.next(0); o >= 0; o = c.conc.next(o + 1) {
			si.Conc[keys[o]] = struct{}{}
		}
		states[si.Key] = si
	}
	return states
}
