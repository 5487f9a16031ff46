package checker

import (
	"math/bits"

	"repro/internal/fingerprint"
	"repro/internal/sim"
)

// bitset is a growable set of small non-negative integers. It grows by
// whole words on demand, so nothing about it assumes a population that
// fits one machine word.
type bitset []uint64

// set adds i and reports whether it was absent.
func (b *bitset) set(i int32) bool {
	w := int(i >> 6)
	if w >= len(*b) {
		*b = append(*b, make([]uint64, w+1-len(*b))...)
	}
	old := (*b)[w]
	(*b)[w] |= 1 << (uint(i) & 63)
	return (*b)[w] != old
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
// vectors and state ids. publishCensus turns it into the public StateInfo.
type stateCensus struct {
	sample          sim.State // from the first admitted configuration holding the state
	procs           bitset
	inputs          bitset
	conc            bitset
	seenEmptyBuffer bool
}

// occupancy is one (state, position, decision) triple: state occupied by
// processor pos in an admitted configuration whose ledger's first decision
// (by processor) is decided. Corollary 6 is a predicate over these.
type occupancy struct {
	state   int32
	pos     sim.ProcID
	decided sim.Decision
}

// localState is a shard's entry for a local state it has admitted: the
// state digest, the State value of the shard's first admitted configuration
// holding it, and the state's id in the exploration once the fold has met
// it (−1 before).
type localState struct {
	d      fingerprint.Digest
	sample sim.State
	id     int32
}

// slot is one position of an admitted configuration as the fold reads it:
// the index of its state in the shard's states, and whether its buffer is
// empty.
type slot struct {
	state int32
	empty bool
}

// describe writes down in r what the fold needs of r.child, a configuration
// the shard admits, so that the fold never reads the configuration itself:
// one slot per position, its state interned in the shard by the digest the
// configuration already caches; the ledger's first decision (by
// processor); whether it is quiescent; and whether some judge finds it
// violating (the fold words the violations, with its number).
func (sh *shard) describe(r *edgeRecord) {
	nd := r.child
	r.slots, r.vec = int32(len(sh.slots)), nd.vecIdx
	for p := range nd.cfg.States {
		d := nd.cfg.StateDigestAt(p)
		i, ok := sh.stateIdx[d]
		if !ok {
			i = int32(len(sh.states))
			sh.stateIdx[d] = i
			sh.states = append(sh.states, localState{d: d, sample: nd.cfg.States[p], id: -1})
		}
		sh.slots = append(sh.slots, slot{i, len(nd.cfg.Buffers[p]) == 0})
	}
	r.decided = sim.NoDecision
	for _, d := range nd.ledger {
		if d != sim.NoDecision {
			r.decided = d
			break
		}
	}
	r.quiescent = nd.cfg.Quiescent()
	for i := range sh.e.judges {
		sh.found = nodeViolations(sh.found[:0], sh.e.judges[i].problem, 0, nd)
		r.violates = r.violates || len(sh.found) > 0
	}
}

// stateIDs returns the ids of the local states of the configuration r
// describes, a node of sh, in the explorer's one reused slice, valid until
// the next call. A state admitted for the first time gets the next id, with
// its key, built once per distinct state, and its census entry, sampled
// from the first admitted configuration holding it; a shard remembers the
// id of each of its states once it has looked it up.
func (e *explorer) stateIDs(sh *shard, r *edgeRecord) []int32 {
	ids := e.ids
	for p, s := range sh.slots[r.slots : int(r.slots)+len(ids)] {
		ls := &sh.states[s.state]
		if ls.id < 0 {
			id, ok := e.stateID[ls.d]
			if !ok {
				id = int32(len(e.census))
				e.stateID[ls.d] = id
				e.x.stateKeys = append(e.x.stateKeys, ls.sample.Key())
				e.census = append(e.census, stateCensus{sample: ls.sample})
			}
			ls.id = id
		}
		ids[p] = ls.id
	}
	return ids
}

// censusAdd folds one accepted configuration, described by r in shard sh and
// given by the ids of its local states, into the state census. An occupancy
// seen for the first time — its bit in explorer.beside newly set — is
// appended to the Exploration's.
func (e *explorer) censusAdd(sh *shard, r *edgeRecord, ids []int32) {
	slots := sh.slots[r.slots:]
	for p, id := range ids {
		c := &e.census[id]
		c.procs.set(int32(p))
		c.inputs.set(r.vec)
		if slots[p].empty {
			c.seenEmptyBuffer = true
		}
		if d := r.decided; d != sim.NoDecision && e.beside.set((id*int32(e.n)+int32(p))*2+int32(d-sim.Abort)) {
			e.x.occupancies = append(e.x.occupancies, occupancy{id, sim.ProcID(p), d})
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
