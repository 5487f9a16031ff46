package sim

import (
	"sort"

	"repro/internal/fingerprint"
)

// ProcPerm is a permutation of processor identities: perm[p] is the
// identity p maps to. Symmetry reduction applies topology automorphisms as
// ProcPerms to relabel configurations without changing their behaviour.
type ProcPerm []ProcID

// Valid reports whether perm is a permutation of 0..n-1.
func (perm ProcPerm) Valid(n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, q := range perm {
		if int(q) < 0 || int(q) >= n || seen[q] {
			return false
		}
		seen[q] = true
	}
	return true
}

// IsIdentity reports whether perm maps every processor to itself.
func (perm ProcPerm) IsIdentity() bool {
	for p, q := range perm {
		if ProcID(p) != q {
			return false
		}
	}
	return true
}

// Permuter is implemented by protocol states that support processor
// relabeling. PermuteProcs returns the state as it would be if every
// processor identity p were renamed to perm[p]; for a state owned by
// processor p the result is owned by perm[p]. Implementations must be pure
// and must compose: permuting by π then by σ equals permuting by σ∘π.
type Permuter interface {
	PermuteProcs(perm ProcPerm) State
}

// PermuteMessage relabels a message's endpoints, preserving the sequence
// number and payload (library payloads carry no processor identities), and
// re-memoizes the key and digest under the new endpoints.
func PermuteMessage(m Message, perm ProcPerm) Message {
	return Message{
		ID:      MsgID{From: perm[m.ID.From], To: perm[m.ID.To], Seq: m.ID.Seq},
		Payload: m.Payload,
		Notice:  m.Notice,
	}.Memoized()
}

// PermuteConfig relabels a configuration by a processor permutation: the
// state, input, and buffer of processor p move to position perm[p], with
// every processor identity inside states and messages rewritten. The
// result is a fresh configuration suitable for Key and Fingerprint; the
// per-channel sequence counters are not carried over (they are excluded
// from both, and a permuted configuration is never executed). It returns
// ok=false when some state does not implement Permuter.
//
// When perm is an automorphism of the protocol's topology, the result is
// behaviourally equivalent to c — reachable iff c is reachable under the
// permuted input vector — which is what makes orbit-minimal canonical
// handles a sound dedup key.
func PermuteConfig(c *Config, perm ProcPerm) (*Config, bool) {
	n := c.N()
	out := &Config{
		States:  make([]State, n),
		Buffers: make([]Buffer, n),
		Inputs:  make([]Bit, n),
	}
	for p := 0; p < n; p++ {
		q := perm[p]
		pm, ok := c.States[p].(Permuter)
		if !ok {
			return nil, false
		}
		out.States[q] = pm.PermuteProcs(perm)
		out.Inputs[q] = c.Inputs[p]
		if buf := c.Buffers[p]; len(buf) > 0 {
			nb := make(Buffer, 0, len(buf))
			for _, m := range buf {
				nb = append(nb, PermuteMessage(m, perm))
			}
			sort.Slice(nb, func(i, j int) bool { return nb[i].Key() < nb[j].Key() })
			out.Buffers[q] = nb
		}
	}
	return out, true
}

// PermuteMemo is the digest-level counterpart of PermuteConfig for one
// fixed list of permutations π₁ … π_k. It keeps one row per component — the
// inputs vector, a state at its owner, a buffered message — holding that
// component's salted fingerprint term under every π_i, so the k relabelled
// fingerprints of a configuration cost one probe per component instead of
// k, and nothing is built once a component has been seen. A configuration's
// vector is [its own (or elided) fingerprint, then its fingerprint relabelled
// by each π_i]: Vector fills it in one pass, and Predictor.Shift moves a
// parent's vector to a successor's by the rows of exactly the components a
// step changes, since fingerprints are sums of component terms.
//
// A row is a pure function of its component's digest (and, for a state, of
// its owner), so rows are memoized by digest — which, exactly as for
// Predictor, makes a 128-bit collision a wrong answer; callers use it only
// where fingerprints already identify configurations. Like Predictor it is
// a plain map, not safe for concurrent use: one walk owns one memo.
type PermuteMemo struct {
	perms []ProcPerm
	inv   []ProcPerm // inv[i][perms[i][p]] = p
	// rows maps a component to the offset of its row in arena; a row is
	// len(perms) terms, the i-th the component's under perms[i].
	rows  map[rowKey]int32
	arena []fingerprint.Digest
}

// rowKey names one component: its digest and its role (rowInputs,
// rowState or rowMessage) in the high half of tag, a state's owner in the
// low half.
type rowKey struct {
	d   fingerprint.Digest
	tag uint64
}

const (
	rowInputs uint64 = iota + 1
	rowState
	rowMessage
)

// NewPermuteMemo returns an empty memo for the given permutations, which
// must all be valid on the same N. An empty list is allowed: the vector is
// then the (elided) fingerprint alone.
func NewPermuteMemo(perms []ProcPerm) *PermuteMemo {
	pm := &PermuteMemo{perms: perms, inv: make([]ProcPerm, len(perms)), rows: make(map[rowKey]int32)}
	for i, perm := range perms {
		pm.inv[i] = make(ProcPerm, len(perm))
		for p, q := range perm {
			pm.inv[i][q] = ProcID(p)
		}
	}
	return pm
}

// Width is the length of a vector: the identity slot plus one slot per
// permutation.
func (pm *PermuteMemo) Width() int { return len(pm.perms) + 1 }

// row returns key's row, or nil when it has not been computed. Rows are
// never empty: without permutations no row is looked up.
func (pm *PermuteMemo) row(key rowKey) []fingerprint.Digest {
	off, ok := pm.rows[key]
	if !ok {
		return nil
	}
	return pm.arena[off : int(off)+len(pm.perms) : int(off)+len(pm.perms)]
}

// store appends a new row for key, filled by term(i) for every π_i.
func (pm *PermuteMemo) store(key rowKey, term func(i int, perm ProcPerm) fingerprint.Digest) []fingerprint.Digest {
	off := len(pm.arena)
	for i, perm := range pm.perms {
		pm.arena = append(pm.arena, term(i, perm))
	}
	pm.rows[key] = int32(off)
	return pm.arena[off:len(pm.arena):len(pm.arena)]
}

// inputsRow is the inputs term of PermuteConfig(c, π_i) for every i: the
// vector π_i carries p's bit to π_i[p].
func (pm *PermuteMemo) inputsRow(inputs []Bit) []fingerprint.Digest {
	key := rowKey{d: inputsDigest(inputs), tag: rowInputs << 32}
	if r := pm.row(key); r != nil {
		return r
	}
	bits := make([]Bit, len(inputs))
	return pm.store(key, func(i int, _ ProcPerm) fingerprint.Digest {
		for q, p := range pm.inv[i] {
			bits[q] = inputs[p]
		}
		return inputsDigest(bits).Mixed(saltInputs)
	})
}

// stateRow is the term of state s, with digest d, owned by p, relabelled by
// every π_i: it lands at position π_i[p]. ok=false means s does not
// implement Permuter. Without permutations the row is empty (nil).
func (pm *PermuteMemo) stateRow(p ProcID, d fingerprint.Digest, s State) ([]fingerprint.Digest, bool) {
	if len(pm.perms) == 0 {
		return nil, true
	}
	key := rowKey{d: d, tag: rowState<<32 | uint64(uint32(p))}
	if r := pm.row(key); r != nil {
		return r, true
	}
	ps, ok := s.(Permuter)
	if !ok {
		return nil, false
	}
	return pm.store(key, func(_ int, perm ProcPerm) fingerprint.Digest {
		return StateDigest(ps.PermuteProcs(perm)).Mixed(saltStateBase + uint64(perm[p]))
	}), true
}

// msgRow is the term of buffered message m relabelled by every π_i: it
// lands in the buffer of π_i[m.ID.To]. Without permutations the row is
// empty (nil).
func (pm *PermuteMemo) msgRow(m *Message) []fingerprint.Digest {
	if len(pm.perms) == 0 {
		return nil
	}
	key := rowKey{d: m.Digest(), tag: rowMessage << 32}
	if r := pm.row(key); r != nil {
		return r
	}
	return pm.store(key, func(_ int, perm ProcPerm) fingerprint.Digest {
		return PermuteMessage(*m, perm).Digest().Mixed(saltBufferBase + uint64(perm[m.ID.To]))
	})
}

// Vector fills dst, of length Width, with c's vector: dst[0] is
// c.Fingerprint() — c.ElidedFingerprint() when elide is set — and dst[i] is
// the Fingerprint of PermuteConfig(c, π_i) — of PermuteConfig of the erased
// view when elide is set. Like PermuteConfig the relabelled slots carry no
// omission term. elided is ElidedFingerprint's report that something was
// erased; ok=false means some state does not implement Permuter.
func (pm *PermuteMemo) Vector(dst []fingerprint.Digest, c *Config, elide bool) (elided, ok bool) {
	if elide {
		dst[0], elided = c.ElidedFingerprint()
	} else {
		dst[0] = c.Fingerprint()
	}
	if len(pm.perms) == 0 {
		return elided, true
	}
	v := dst[1:]
	copy(v, pm.inputsRow(c.Inputs))
	for p, s := range c.States {
		r, ok := pm.stateRow(ProcID(p), c.StateDigestAt(p), s)
		if !ok {
			return false, false
		}
		addRow(v, r)
		if elide && c.deadLetterBox(ProcID(p)) {
			continue
		}
		buf := c.Buffers[p]
		for j := range buf {
			addRow(v, pm.msgRow(&buf[j]))
		}
	}
	return elided, true
}

// addRow adds row r to vector slots v, term by term.
func addRow(v, r []fingerprint.Digest) {
	v = v[:len(r)]
	for i := range r {
		v[i] = v[i].Add(r[i])
	}
}

// subRow subtracts row r from vector slots v, term by term.
func subRow(v, r []fingerprint.Digest) {
	v = v[:len(r)]
	for i := range r {
		v[i] = v[i].Sub(r[i])
	}
}

// PermuteProcs implements Permuter for failed states: ⊥(p) relabels to
// ⊥(perm[p]).
func (s failedState) PermuteProcs(perm ProcPerm) State {
	return FailedStateFor(perm[s.p])
}
