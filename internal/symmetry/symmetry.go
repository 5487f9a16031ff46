// Package symmetry computes processor-symmetry groups for the library
// topologies. A topology automorphism is a relabeling of processor
// identities that maps the communication structure onto itself: applying
// it to any reachable configuration (states, inputs, buffers — see
// sim.PermuteConfig) yields a configuration whose behaviour is the
// original's up to the same relabeling. The explorer exploits this by
// minimizing each node's dedup handle over the group's orbit, collapsing
// symmetric configurations to one explored representative (DESIGN.md §8).
//
// The groups:
//
//   - fullexchange: every processor plays the same role, so the full
//     symmetric group S_N acts.
//   - star: the coordinator p0 is distinguished; the N−1 participants are
//     interchangeable, giving S_{N−1} fixing 0.
//   - tree: automorphisms permute sibling subtrees of equal shape; for the
//     complete binary trees the protocol requires (N = 2^k − 1) the group
//     is the iterated wreath product of order 2^(number of internal
//     nodes), generated by per-node subtree swaps and computed here by
//     closure over those generators, with subtree-shape hashing guarding
//     the equal-shape requirement.
//   - chain: the relay order p0 → p1 → … → p_{N−1} distinguishes every
//     position, so the group is trivial and ForProtocol returns nothing.
//
// All functions are pure: they derive permutations from the protocol's
// size and topology alone.
package symmetry

import (
	"sort"

	"repro/internal/protocols"
	"repro/internal/sim"
)

// maxGroup bounds the enumerated group size. Orbit minimization runs on
// every generated successor and costs one memo probe per component the
// step changes plus one digest add per group element per such component
// (sim.PermuteMemo's rows, shifted by sim.Predictor.Shift), and every
// queued node keeps one digest per group element; a group much larger
// would cost more than the dedup saves, so oversized groups are reported
// as no usable symmetry. The bound admits fullexchange to N=6 (6!−1 =
// 719), star to N=7, and trees to N=15 (2^7 = 128).
const maxGroup = 720

// ForProtocol returns the non-identity automorphisms of the protocol's
// topology, or nil when the protocol has no usable symmetry: an
// unsupported protocol type, a trivial group (chain), or a group past
// maxGroup. The identity is omitted because callers always have the
// unpermuted handle in hand.
//
//ccvet:pure
func ForProtocol(proto sim.Protocol) []sim.ProcPerm {
	switch p := proto.(type) {
	case protocols.Tree:
		return treeGroup(p.Procs)
	case protocols.Star:
		return fixingFirst(p.Procs)
	case protocols.FullExchange:
		return symmetric(p.Procs)
	case protocols.Chain:
		// The chain relays the decision along fixed positions; no two
		// processors are interchangeable.
		return nil
	default:
		return nil
	}
}

// Identity returns the identity permutation on n processors.
//
//ccvet:pure
func Identity(n int) sim.ProcPerm {
	perm := make(sim.ProcPerm, n)
	for i := range perm {
		perm[i] = sim.ProcID(i)
	}
	return perm
}

// symmetric returns all non-identity permutations of 0..n-1.
//
//ccvet:pure
func symmetric(n int) []sim.ProcPerm {
	if n < 2 || factorialExceeds(n, maxGroup+1) {
		return nil
	}
	var out []sim.ProcPerm
	permute(Identity(n), 0, &out)
	return out
}

// fixingFirst returns all non-identity permutations of 0..n-1 that fix 0.
//
//ccvet:pure
func fixingFirst(n int) []sim.ProcPerm {
	if n < 3 || factorialExceeds(n-1, maxGroup+1) {
		return nil
	}
	var out []sim.ProcPerm
	permute(Identity(n), 1, &out)
	return out
}

// permute appends to out every non-identity permutation reachable by
// rearranging positions from..len-1 of base (Heap's-style recursive
// enumeration by swapping into position from).
func permute(base sim.ProcPerm, from int, out *[]sim.ProcPerm) {
	if from == len(base) {
		if !base.IsIdentity() {
			*out = append(*out, append(sim.ProcPerm(nil), base...))
		}
		return
	}
	for i := from; i < len(base); i++ {
		base[from], base[i] = base[i], base[from]
		permute(base, from+1, out)
		base[from], base[i] = base[i], base[from]
	}
}

// factorialExceeds reports whether n! > limit without overflowing.
func factorialExceeds(n, limit int) bool {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
		if f > limit {
			return true
		}
	}
	return false
}

// treeGroup returns the non-identity automorphisms of the heap-layout
// binary tree on n nodes (children of p are 2p+1 and 2p+2): the closure of
// the sibling-subtree swaps at every internal node whose two child
// subtrees have equal shape.
//
//ccvet:pure
func treeGroup(n int) []sim.ProcPerm {
	if n < 3 {
		return nil
	}
	shapes := subtreeShapes(n)
	var gens []sim.ProcPerm
	for p := 0; p < n; p++ {
		l, r := 2*p+1, 2*p+2
		if r < n && shapes[l] == shapes[r] {
			g := Identity(n)
			swapSubtrees(g, l, r, n)
			gens = append(gens, g)
		}
	}
	return closure(gens, n)
}

// subtreeShapes hashes the shape of every subtree: two subtrees get equal
// hashes iff they have identical structure. For the complete trees the
// tree protocol admits, shape reduces to subtree size, but the hash also
// handles ragged last levels correctly.
func subtreeShapes(n int) []uint64 {
	shapes := make([]uint64, n)
	for p := n - 1; p >= 0; p-- {
		var l, r uint64 = 0, 0
		if 2*p+1 < n {
			l = shapes[2*p+1]
		}
		if 2*p+2 < n {
			r = shapes[2*p+2]
		}
		h := l*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
		h ^= r * 0xc2b2ae3d27d4eb4f
		shapes[p] = h*0xff51afd7ed558ccd + 1
	}
	return shapes
}

// swapSubtrees rewrites g to exchange the subtrees rooted at l and r by
// the position-preserving correspondence (left child to left child).
func swapSubtrees(g sim.ProcPerm, l, r, n int) {
	if l >= n || r >= n {
		return
	}
	g[l], g[r] = sim.ProcID(r), sim.ProcID(l)
	swapSubtrees(g, 2*l+1, 2*r+1, n)
	swapSubtrees(g, 2*l+2, 2*r+2, n)
}

// closure returns the group generated by gens (minus the identity), or nil
// if it exceeds maxGroup. Elements come out in a deterministic order
// (sorted by their permutation word) so explorations do not depend on
// generator discovery order.
func closure(gens []sim.ProcPerm, n int) []sim.ProcPerm {
	if len(gens) == 0 {
		return nil
	}
	seen := map[string]sim.ProcPerm{}
	id := Identity(n)
	seen[permKey(id)] = id
	queue := []sim.ProcPerm{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, g := range gens {
			next := compose(g, cur)
			k := permKey(next)
			if _, ok := seen[k]; ok {
				continue
			}
			if len(seen) > maxGroup {
				return nil
			}
			seen[k] = next
			queue = append(queue, next)
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen { //ccvet:ignore detrange sorted immediately below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]sim.ProcPerm, 0, len(keys)-1)
	for _, k := range keys {
		if p := seen[k]; !p.IsIdentity() {
			out = append(out, p)
		}
	}
	return out
}

// compose returns the permutation applying b first, then a.
//
//ccvet:pure
func compose(a, b sim.ProcPerm) sim.ProcPerm {
	out := make(sim.ProcPerm, len(a))
	for i := range out {
		out[i] = a[b[i]]
	}
	return out
}

// permKey renders a permutation as a comparable map key.
func permKey(p sim.ProcPerm) string {
	buf := make([]byte, len(p))
	for i, q := range p {
		buf[i] = byte(q)
	}
	return string(buf)
}
