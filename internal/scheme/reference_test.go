package scheme

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/pattern"
	"repro/internal/sim"
)

// refNode is the reference walk's node: a configuration plus the causal
// bookkeeping kept the plain way, in maps — which messages each processor
// may know, the causal past frozen at each send, and the pattern built
// through pattern.Add. It shares nothing with the enumerator's indices,
// bitsets or digests, so the two define a pattern independently.
type refNode struct {
	cfg      *sim.Config
	pat      *pattern.Pattern
	known    []map[sim.MsgID]struct{}
	sendPast map[sim.MsgID][]sim.MsgID
}

func refRoot(proto sim.Protocol, inputs []sim.Bit) *refNode {
	nd := &refNode{
		cfg:      sim.NewConfig(proto, inputs),
		pat:      pattern.New(),
		known:    make([]map[sim.MsgID]struct{}, proto.N()),
		sendPast: make(map[sim.MsgID][]sim.MsgID),
	}
	for i := range nd.known {
		nd.known[i] = make(map[sim.MsgID]struct{})
	}
	return nd
}

// step returns the successor of nd along one applied event: a deep copy of
// the bookkeeping with the effect's sends and receipt applied.
func (nd *refNode) step(cfg *sim.Config, eff sim.Effect) *refNode {
	out := &refNode{
		cfg:      cfg,
		pat:      nd.pat.Clone(),
		known:    make([]map[sim.MsgID]struct{}, len(nd.known)),
		sendPast: make(map[sim.MsgID][]sim.MsgID, len(nd.sendPast)+1),
	}
	for i, set := range nd.known {
		out.known[i] = make(map[sim.MsgID]struct{}, len(set)+2)
		for id := range set { //ccvet:ignore detrange map copy; insertion order is unobservable
			out.known[i][id] = struct{}{}
		}
	}
	for id, past := range nd.sendPast { //ccvet:ignore detrange map copy; insertion order is unobservable
		out.sendPast[id] = past
	}
	p := eff.Event.Proc
	for _, m := range eff.Sent {
		past := make([]sim.MsgID, 0, len(out.known[p]))
		for id := range out.known[p] {
			past = append(past, id)
		}
		sort.Slice(past, func(i, j int) bool { return past[i].Less(past[j]) })
		out.sendPast[m.ID] = past
		out.pat.Add(m.ID, past...)
		out.known[p][m.ID] = struct{}{}
	}
	if eff.Received != nil {
		id := eff.Received.ID
		for _, q := range out.sendPast[id] {
			out.known[p][q] = struct{}{}
		}
		out.known[p][id] = struct{}{}
	}
	return out
}

// key is the node's full canonical encoding: configuration, pattern so far,
// and every processor's knowledge set, sorted. It is the identity the
// reference walk dedups on; the enumerator's fingerprint must identify
// exactly the same nodes.
func (nd *refNode) key() string {
	parts := []string{nd.cfg.Key(), nd.pat.Key()}
	for _, set := range nd.known {
		ids := make([]string, 0, len(set))
		for id := range set {
			ids = append(ids, id.String())
		}
		sort.Strings(ids)
		parts = append(parts, strings.Join(ids, ","))
	}
	return strings.Join(parts, "!")
}

// refEnumerate is the oracle the differential suite holds EnumerateContext
// to: the same breadth-first walk in the same event order with none of the
// enumerator's machinery. A node is its full canonical key and every edge
// is a sim.Apply — no fingerprint is compared, nothing is predicted, cached,
// interned or recycled — and the causal bookkeeping is refNode's maps, so a
// broken incremental digest, a wrong predicted successor or a wrong bitset
// shows as a different enumDigest.
func refEnumerate(ctx context.Context, proto sim.Protocol, inputs []sim.Bit, opts Options) (*Enumeration, error) {
	en := &Enumeration{Set: NewSet()}
	exhausted := func(visited, frontier int) (*Enumeration, error) {
		en.Status, en.Visited, en.Frontier = StatusExhausted, visited, frontier
		return en, &BudgetError{Protocol: proto.Name(), Nodes: opts.maxNodes()}
	}
	start := refRoot(proto, inputs)
	visited := map[string]bool{start.key(): true}
	queue := []*refNode{start} // every accepted node, in admission order
	for head := 0; head < len(queue); {
		nd := queue[head]
		head++
		if err := ctx.Err(); err != nil {
			en.Status, en.Visited, en.Frontier = StatusInterrupted, len(queue), len(queue)-head+1
			return en, fmt.Errorf("scheme: enumeration of %s interrupted: %w", proto.Name(), err)
		}
		events := sim.Enabled(nd.cfg)
		if len(events) == 0 {
			en.Set.Add(nd.pat)
		}
		for _, ev := range events {
			cfg, eff, err := sim.Apply(proto, nd.cfg, ev)
			if err != nil {
				return nil, fmt.Errorf("scheme: exploring %s: %w", proto.Name(), err)
			}
			nxt := nd.step(cfg, eff)
			if k := nxt.key(); !visited[k] {
				visited[k] = true
				if len(queue) >= opts.maxNodes() {
					return exhausted(len(queue), len(queue)-head+1)
				}
				queue = append(queue, nxt)
			}
		}
	}
	en.Visited = len(queue)
	return en, nil
}

// refOf is Of over refEnumerate: the union over every input vector, with
// the counts summed and the last status kept, as OfContext keeps them.
func refOf(ctx context.Context, proto sim.Protocol, opts Options) (*Enumeration, error) {
	out := &Enumeration{Set: NewSet()}
	for _, inputs := range sim.AllInputs(proto.N()) {
		en, err := refEnumerate(ctx, proto, inputs, opts)
		if en != nil {
			out.Set.Union(en.Set)
			out.Visited += en.Visited
			out.Frontier += en.Frontier
			out.Status = en.Status
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
