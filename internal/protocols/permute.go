package protocols

import (
	"sort"

	"repro/internal/sim"
)

// This file implements sim.Permuter for the four library protocols whose
// topologies carry non-trivial automorphism groups (tree, star, chain,
// full exchange — see internal/symmetry for the groups themselves).
// Permuting a state relabels every processor identity it mentions and, for
// a state owned by p, yields the state as held by perm[p]. Set-valued
// fields (procSet) relabel member-wise; the canonical early-message list
// is re-sorted so that permuting commutes with composition; positional
// queues (out slices) keep their order, which is all canonical-handle
// symmetry dedup needs — it compares exact relabelings, never re-executes
// a permuted state.

// permute relabels a processor set member-wise.
//
//ccvet:pure
func (s procSet) permute(perm sim.ProcPerm) procSet {
	var out procSet
	for _, p := range s.members() {
		out = out.add(perm[p])
	}
	return out
}

// permuteOut relabels the targets of a pending-send queue, preserving
// order (the queue drains positionally).
//
//ccvet:pure
func permuteOut(out []outItem, perm sim.ProcPerm) []outItem {
	if len(out) == 0 {
		return nil
	}
	res := make([]outItem, len(out))
	for i, it := range out {
		res[i] = outItem{to: perm[it.to], payload: it.payload}
	}
	return res
}

// permute relabels a termination-protocol core. The early list is
// re-sorted into its canonical order (appendEarly keeps it sorted by
// round, then sender, then committable), so permuting composes.
//
//ccvet:pure
func (c termCore) permute(perm sim.ProcPerm) termCore {
	c.self = perm[c.self]
	c.up = c.up.permute(perm)
	c.got = c.got.permute(perm)
	c.out = c.out.permute(perm)
	if len(c.early) > 0 {
		early := make([]earlyMsg, len(c.early))
		for i, e := range c.early {
			early[i] = earlyMsg{Round: e.Round, From: perm[e.From], Committable: e.Committable}
		}
		sort.Slice(early, func(i, j int) bool {
			if early[i].Round != early[j].Round {
				return early[i].Round < early[j].Round
			}
			if early[i].From != early[j].From {
				return early[i].From < early[j].From
			}
			return !early[i].Committable && early[j].Committable
		})
		c.early = early
	}
	return c
}

// permute relabels a failure path: its removed set and its core.
//
//ccvet:pure
func (f fallback) permute(perm sim.ProcPerm) fallback {
	return fallback{removed: f.removed.permute(perm), term: f.term.permute(perm)}
}

// permute relabels an amnesia announcement's pending targets.
//
//ccvet:pure
func (a amnesia) permute(perm sim.ProcPerm) amnesia {
	a.out = a.out.permute(perm)
	return a
}

// PermuteProcs implements sim.Permuter.
//
//ccvet:pure
func (s treeState) PermuteProcs(perm sim.ProcPerm) sim.State {
	s.self = perm[s.self]
	s.vals = s.vals.permute(perm)
	s.zeroKids = s.zeroKids.permute(perm)
	s.acks = s.acks.permute(perm)
	s.amn = s.amn.permute(perm)
	s.out = permuteOut(s.out, perm)
	s.fallback = s.fallback.permute(perm)
	return s
}

// PermuteProcs implements sim.Permuter.
//
//ccvet:pure
func (s starState) PermuteProcs(perm sim.ProcPerm) sim.State {
	s.self = perm[s.self]
	s.heard = s.heard.permute(perm)
	s.out = permuteOut(s.out, perm)
	s.fallback = s.fallback.permute(perm)
	return s
}

// PermuteProcs implements sim.Permuter.
//
//ccvet:pure
func (s chainState) PermuteProcs(perm sim.ProcPerm) sim.State {
	s.self = perm[s.self]
	s.heard = s.heard.permute(perm)
	s.amn = s.amn.permute(perm)
	s.out = permuteOut(s.out, perm)
	s.fallback = s.fallback.permute(perm)
	return s
}

// PermuteProcs implements sim.Permuter.
//
//ccvet:pure
func (s fxState) PermuteProcs(perm sim.ProcPerm) sim.State {
	s.self = perm[s.self]
	s.heard = s.heard.permute(perm)
	s.out = permuteOut(s.out, perm)
	s.fallback = s.fallback.permute(perm)
	return s
}
