package scheme

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// key is the node's full canonical encoding: configuration, pattern so far,
// and every processor's knowledge set, sorted. It is the identity the
// reference walk dedups on; the enumerator's fingerprint must identify
// exactly the same nodes.
func (nd *node) key() string {
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
// enumerator's identity machinery. A node is its full canonical key and
// every edge is a sim.Apply — no fingerprint is compared, nothing is
// predicted or cached — so a broken incremental digest or a wrong predicted
// successor shows as a different enumDigest. It shares the causal
// bookkeeping (cloneFor, applyEffect), which defines what a pattern is
// rather than which nodes are the same.
func refEnumerate(ctx context.Context, proto sim.Protocol, inputs []sim.Bit, opts Options) (*Enumeration, error) {
	en := &Enumeration{Set: NewSet()}
	exhausted := func(visited, frontier int) (*Enumeration, error) {
		en.Status, en.Visited, en.Frontier = StatusExhausted, visited, frontier
		return en, &BudgetError{Protocol: proto.Name(), Nodes: opts.maxNodes()}
	}
	start := rootNode(proto, inputs)
	visited := map[string]bool{start.key(): true}
	queue := []*node{start} // every accepted node, in admission order
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
			nxt := nd.cloneFor(ev)
			nxt.cfg = cfg
			applyEffect(nxt, eff)
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
