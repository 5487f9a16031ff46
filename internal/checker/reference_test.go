package checker

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// refExplore is the oracle the differential suites hold Explore to: an
// independent breadth-first walk of the unreduced space, in the engine's
// event order, that shares none of its identity machinery. A node is its
// full canonical key, every edge is a sim.Apply, states are interned and
// parents linked by key, and the census is one map update per occurrence —
// no fingerprint, prediction, transition cache, intern id or bitset is read,
// so a broken hash, a stale cache entry or a miscounted census in the engine
// shows as a different exploreDigest. It reports its admissions to
// Options.observe as the engine does. Its ledgers are ledgerAfter's, which
// reads every processor's state where the engine's updateLedger reads the
// stepping one's cached decision. It shares what identity is not about: sim
// and the judge (edgeViolations and nodeViolations, which call taxonomy's),
// numbering a node for the IC wording by its admission, as the engine does;
// problems holds the one judge, if any.
func refExplore(ctx context.Context, proto sim.Protocol, problems []taxonomy.Problem, opts Options) (*Exploration, error) {
	n := proto.N()
	maxFail := opts.MaxFailures
	if maxFail < 0 {
		maxFail = n - 1
	}
	canFail := func(p int) bool { return opts.FailProcs == nil || slices.Contains(opts.FailProcs, sim.ProcID(p)) }
	inputVecs := opts.Inputs
	if inputVecs == nil {
		inputVecs = sim.AllInputs(n)
	}

	type link struct {
		parent string
		event  sim.Event
	}
	var (
		x        = &Exploration{Proto: proto, Opts: opts, States: map[string]*StateInfo{}}
		visited  = map[string]bool{}
		roots    = map[string][]sim.Bit{} // root key → its input vector
		parents  = map[string]link{}
		stateID  = map[string]int32{}
		queue    []*node  // accepted and not yet walked, from head on,
		nodeKey  []string // each with its key
		head     int
		violated bool
	)
	violate := func(found []taxonomy.Violation, key string) {
		for _, v := range found {
			if len(x.Violations) == 0 && opts.TrackTraces {
				cur := key
				for l, ok := parents[cur]; ok; l, ok = parents[cur] {
					x.FirstTrace, cur = append(x.FirstTrace, l.event), l.parent
				}
				slices.Reverse(x.FirstTrace)
				x.FirstInputs = roots[cur]
			}
			if len(x.Violations) < 100 {
				x.Violations = append(x.Violations, v)
			}
			violated = true
		}
	}
	// admit accepts nd unless it was visited; stop ends the walk with the
	// result so far.
	admit := func(nd *node, key string) (stop bool, err error) {
		if visited[key] {
			return false, nil
		}
		visited[key] = true
		if x.NodeCount >= opts.maxNodes() {
			x.Status, x.FrontierSize = StatusExhausted, len(queue)-head+1
			return true, &BudgetError{Protocol: proto.Name(), Nodes: opts.maxNodes()}
		}
		x.NodeCount++
		ids, keys, vec := make([]int32, n), make([]string, n), sim.InputsString(nd.inputs)
		for p, st := range nd.cfg.States {
			k := st.Key()
			id, ok := stateID[k]
			if !ok {
				id = int32(len(x.stateKeys))
				stateID[k] = id
				x.stateKeys = append(x.stateKeys, k)
				x.States[k] = &StateInfo{Key: k, Sample: st, Procs: map[sim.ProcID]struct{}{}, Inputs: map[string]struct{}{}, Conc: map[string]struct{}{}}
			}
			keys[p], ids[p] = k, id
		}
		for p, k := range keys {
			si := x.States[k]
			si.Procs[sim.ProcID(p)] = struct{}{}
			si.Inputs[vec] = struct{}{}
			si.SeenEmptyBuffer = si.SeenEmptyBuffer || len(nd.cfg.Buffers[p]) == 0
			for q, other := range keys {
				if q != p {
					si.Conc[other] = struct{}{}
				}
			}
		}
		if nd.cfg.Quiescent() {
			x.Terminals++
		}
		if opts.observe != nil {
			opts.observe(ids, nd)
		}
		for _, p := range problems {
			violate(nodeViolations(nil, p, x.NodeCount-1, nd), key)
		}
		if opts.StopAtFirstViolation && violated {
			return true, nil
		}
		queue, nodeKey = append(queue, nd), append(nodeKey, key)
		return false, nil
	}

	for _, inputs := range inputVecs {
		root := &node{cfg: sim.NewConfigOmission(proto, inputs, opts.omission()), ledger: make([]sim.Decision, n), inputs: inputs}
		roots[root.key()] = inputs
		if stop, err := admit(root, root.key()); stop {
			return x, err
		}
	}
	for head < len(queue) {
		nd, ndKey := queue[head], nodeKey[head]
		queue[head] = nil
		head++
		if err := ctx.Err(); err != nil {
			x.Status, x.FrontierSize = StatusInterrupted, len(queue)-head+1
			return x, fmt.Errorf("checker: exploration of %s interrupted: %w", proto.Name(), err)
		}
		failed := 0
		for p := 0; p < n; p++ {
			if nd.cfg.Faulty(sim.ProcID(p)) {
				failed++
			}
		}
		events := sim.Enabled(nd.cfg)
		for p := 0; p < n && failed < maxFail; p++ {
			if canFail(p) && !nd.cfg.Faulty(sim.ProcID(p)) {
				events = append(events, sim.Event{Proc: sim.ProcID(p), Type: sim.Fail})
			}
		}
		failureSeen := failed > 0 || nd.cfg.OmissionsUsed() > 0
		for _, ev := range events {
			cfg, _, err := sim.Apply(proto, nd.cfg, ev)
			if err != nil {
				return nil, fmt.Errorf("checker: exploring %s: %w", proto.Name(), err)
			}
			nxt := &node{cfg: cfg, ledger: ledgerAfter(nd.ledger, cfg), inputs: nd.inputs}
			key := nxt.key()
			if _, linked := parents[key]; opts.TrackTraces && !linked && roots[key] == nil {
				parents[key] = link{ndKey, ev}
			}
			for _, p := range problems {
				violate(edgeViolations(nil, p, nd, nxt, failureSeen), key)
			}
			if opts.StopAtFirstViolation && violated {
				return x, nil
			}
			if stop, err := admit(nxt, key); stop {
				return x, err
			}
		}
	}
	return x, nil
}

// ledgerAfter is the oracles' ledger update: old extended with every
// decision visible in cfg, read from the states themselves. Decisions are
// irrevocable, so a visible one can only confirm or extend the ledger; a
// ledger that gains nothing is returned as is.
func ledgerAfter(old []sim.Decision, cfg *sim.Config) []sim.Decision {
	out, shared := old, true
	for p, s := range cfg.States {
		d, ok := s.Decided()
		if !ok || out[p] == d {
			continue
		}
		if shared {
			out, shared = slices.Clone(old), false
		}
		out[p] = d
	}
	return out
}
