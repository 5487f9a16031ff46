// Package pattern implements communication patterns: the partial ordering
// <_I on the messages of an execution I, as defined in Section 3 of Dwork &
// Skeen (1984). The ordering is Lamport's "happens before" restricted to
// message-sending steps: m1 <_I m2 iff the contents of m1 may be known to
// the sender of m2 when m2 is sent. Messages are represented by their
// triples (p, q, k) — the k-th message from p to q — because the pattern
// abstracts away message contents.
package pattern

import (
	"sort"
	"strings"

	"repro/internal/sim"
)

// Pattern is the communication pattern of an execution: a finite set of
// message triples together with the strict partial order <_I, stored as each
// message's full causal past (the set of messages strictly before it).
type Pattern struct {
	// past[m] is the set of messages m' with m' <_I m. Every message of
	// the pattern has an entry, possibly empty.
	past map[sim.MsgID]idSet
}

type idSet map[sim.MsgID]struct{}

func (s idSet) add(id sim.MsgID)      { s[id] = struct{}{} }
func (s idSet) has(id sim.MsgID) bool { _, ok := s[id]; return ok }
func (s idSet) union(other idSet) {
	for id := range other { //ccvet:ignore detrange set union; insertion order is unobservable
		s[id] = struct{}{}
	}
}
func (s idSet) clone() idSet {
	out := make(idSet, len(s))
	for id := range s { //ccvet:ignore detrange map copy; insertion order is unobservable
		out[id] = struct{}{}
	}
	return out
}

// New returns an empty pattern.
func New() *Pattern {
	return &Pattern{past: make(map[sim.MsgID]idSet)}
}

// FromRun extracts the communication pattern of a run. Every message sent in
// the run — including failure notices — participates in the causal order;
// failure notices are then excluded from the pattern's message set (the
// paper's patterns order the protocol's messages; schemes are failure-free,
// where the distinction is vacuous, but knowledge still flows through
// notices in runs with failures).
func FromRun(r *sim.Run) *Pattern {
	n := r.Initial().N()
	// known[p] is the causal past of processor p: every message whose
	// contents p may know (messages it sent, messages it received, and
	// their pasts).
	known := make([]idSet, n)
	for i := range known {
		known[i] = make(idSet)
	}
	sendPast := make(map[sim.MsgID]idSet) // causal past frozen at send time
	notice := make(map[sim.MsgID]bool)

	for _, eff := range r.Effects {
		p := eff.Event.Proc
		for _, m := range eff.Sent {
			sendPast[m.ID] = known[p].clone()
			notice[m.ID] = m.Notice
			known[p].add(m.ID)
		}
		if eff.Received != nil {
			m := *eff.Received
			if past, ok := sendPast[m.ID]; ok {
				known[p].union(past)
			}
			known[p].add(m.ID)
		}
	}

	pat := New()
	for id, past := range sendPast { //ccvet:ignore detrange builds a map keyed by id; insertion order is unobservable
		if notice[id] {
			continue
		}
		filtered := make(idSet, len(past))
		for pid := range past { //ccvet:ignore detrange set filter; insertion order is unobservable
			if !notice[pid] {
				filtered.add(pid)
			}
		}
		pat.past[id] = filtered
	}
	return pat
}

// Clone returns a copy sharing the stored past sets. Past sets are
// immutable once inserted — Add always builds a fresh set and unions other
// sets into it without mutating them — so clones may extend the pattern
// independently while sharing all existing entries: a copy costs one
// map entry per message, not a rebuild of every past.
func (p *Pattern) Clone() *Pattern {
	out := &Pattern{past: make(map[sim.MsgID]idSet, len(p.past))}
	for id, past := range p.past { //ccvet:ignore detrange map copy; insertion order is unobservable
		out.past[id] = past
	}
	return out
}

// Add inserts a message with the given strict predecessors, closing the
// order transitively through already-present predecessors. It is intended
// for constructing expected patterns in tests and experiments.
func (p *Pattern) Add(id sim.MsgID, preds ...sim.MsgID) *Pattern {
	set := make(idSet)
	for _, q := range preds {
		set.add(q)
		if qp, ok := p.past[q]; ok {
			set.union(qp)
		}
	}
	p.past[id] = set
	return p
}

// Size returns the number of messages in the pattern.
func (p *Pattern) Size() int { return len(p.past) }

// Has reports whether the message belongs to the pattern.
func (p *Pattern) Has(id sim.MsgID) bool {
	_, ok := p.past[id]
	return ok
}

// Less reports whether a <_I b.
func (p *Pattern) Less(a, b sim.MsgID) bool {
	past, ok := p.past[b]
	return ok && past.has(a)
}

// Concurrent reports whether two distinct messages of the pattern are
// unordered.
func (p *Pattern) Concurrent(a, b sim.MsgID) bool {
	return a != b && p.Has(a) && p.Has(b) && !p.Less(a, b) && !p.Less(b, a)
}

// Messages lists the pattern's messages in canonical (lexicographic) order.
func (p *Pattern) Messages() []sim.MsgID {
	out := make([]sim.MsgID, 0, len(p.past))
	for id := range p.past {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Preds returns the messages strictly before id, in canonical order.
func (p *Pattern) Preds(id sim.MsgID) []sim.MsgID {
	past, ok := p.past[id]
	if !ok {
		return nil
	}
	out := make([]sim.MsgID, 0, len(past))
	for q := range past {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Key returns the canonical encoding of the pattern: messages in canonical
// order, each with its sorted causal past. Two patterns are equal iff their
// keys are equal.
func (p *Pattern) Key() string {
	var sb strings.Builder
	for i, id := range p.Messages() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(id.String())
		sb.WriteByte('<')
		for j, q := range p.Preds(id) {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(q.String())
		}
	}
	return sb.String()
}

// Equal reports whether two patterns are the same set of triples with the
// same order.
func (p *Pattern) Equal(q *Pattern) bool { return p.Key() == q.Key() }

// Validate checks that the stored relation is a strict partial order over
// exactly the pattern's message set: irreflexive, transitive, antisymmetric,
// with every predecessor itself a pattern message.
func (p *Pattern) Validate() error {
	// Iterate in canonical order so an invalid pattern always yields the
	// same error, whichever violation the map happened to surface first.
	for _, id := range p.Messages() {
		past := p.past[id]
		if past.has(id) {
			return &InvalidOrderError{Reason: "irreflexivity violated at " + id.String()}
		}
		for _, q := range p.Preds(id) {
			qp, ok := p.past[q]
			if !ok {
				return &InvalidOrderError{Reason: "predecessor " + q.String() + " of " + id.String() + " not in pattern"}
			}
			if qp.has(id) {
				return &InvalidOrderError{Reason: "antisymmetry violated between " + id.String() + " and " + q.String()}
			}
			for _, r := range p.Preds(q) {
				if !past.has(r) {
					return &InvalidOrderError{
						Reason: "transitivity violated: " + r.String() + " < " + q.String() + " < " + id.String(),
					}
				}
			}
		}
	}
	return nil
}

// InvalidOrderError reports a pattern whose relation is not a strict partial
// order.
type InvalidOrderError struct{ Reason string }

func (e *InvalidOrderError) Error() string { return "pattern: " + e.Reason }
