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
// fixed list of permutations: it computes the fingerprint a relabelled
// configuration would have from the configuration's cached component
// digests, building no Config, State, or Message once a component has
// been seen. The relabelled digest of a local state is a pure function of
// (permutation, owner, state) and that of a message of (permutation,
// message), so both are memoized by input digest — which, exactly as for
// Predictor, makes a 128-bit collision a wrong answer; callers use it only
// where fingerprints already identify configurations. Like Predictor it is
// a plain map, not safe for concurrent use.
type PermuteMemo struct {
	perms []ProcPerm
	inv   []ProcPerm // inv[i][perms[i][p]] = p
	memo  map[fingerprint.Digest]fingerprint.Digest
}

// NewPermuteMemo returns an empty memo for the given permutations, which
// must all be valid on the same N.
func NewPermuteMemo(perms []ProcPerm) *PermuteMemo {
	pm := &PermuteMemo{perms: perms, inv: make([]ProcPerm, len(perms)), memo: make(map[fingerprint.Digest]fingerprint.Digest)}
	for i, perm := range perms {
		pm.inv[i] = make(ProcPerm, len(perm))
		for p, q := range perm {
			pm.inv[i][q] = ProcID(p)
		}
	}
	return pm
}

// permuteMemoKey keys one memoized relabelling: role 1 is the state d
// owned by processor owner, role 2 the message d (owner 0), under the
// memo's i-th permutation.
//
//ccvet:pure
func permuteMemoKey(role uint64, i, owner int, d fingerprint.Digest) fingerprint.Digest {
	h := fingerprint.New()
	h.WriteUint64(role<<56 | uint64(i)<<32 | uint64(uint32(owner)))
	h.WriteUint64(d.Lo)
	h.WriteUint64(d.Hi)
	return h.Sum()
}

// Fingerprint returns the Fingerprint of PermuteConfig(c, perms[i]) — of
// PermuteConfig(c.WithoutDeadBuffers(), perms[i]) when elide is set —
// without building it: the permuted-inputs term plus, for every processor
// p, the relabelled digests of its state and buffered messages salted at
// position perms[i][p]. Like PermuteConfig it carries no omission term and
// reports ok=false when a state does not implement Permuter.
func (pm *PermuteMemo) Fingerprint(c *Config, i int, elide bool) (fingerprint.Digest, bool) {
	perm := pm.perms[i]
	h := fingerprint.New()
	for _, p := range pm.inv[i] {
		h.WriteUint64(uint64(c.Inputs[p]))
	}
	fp := h.Sum().Mixed(saltInputs)
	for p, s := range c.States {
		key := permuteMemoKey(1, i, p, c.StateDigestAt(p))
		d, ok := pm.memo[key]
		if !ok {
			ps, permutable := s.(Permuter)
			if !permutable {
				return fingerprint.Digest{}, false
			}
			d = StateDigest(ps.PermuteProcs(perm))
			pm.memo[key] = d
		}
		fp = fp.Add(d.Mixed(saltStateBase + uint64(perm[p])))
		if elide && deadLetterBox(s) {
			continue
		}
		buf := c.Buffers[p]
		for j := range buf {
			mkey := permuteMemoKey(2, i, 0, buf[j].Digest())
			md, ok := pm.memo[mkey]
			if !ok {
				md = PermuteMessage(buf[j], perm).Digest()
				pm.memo[mkey] = md
			}
			fp = fp.Add(md.Mixed(saltBufferBase + uint64(perm[p])))
		}
	}
	return fp, true
}

// PermuteProcs implements Permuter for failed states: ⊥(p) relabels to
// ⊥(perm[p]).
func (s failedState) PermuteProcs(perm ProcPerm) State {
	return FailedStateFor(perm[s.p])
}
