package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	consensus "repro"
	"repro/internal/sim"
	"repro/internal/symmetry"
)

// cell is one exhaustive exploration: a conformance check of a protocol
// against a problem under a fault bound, or a scheme enumeration.
type cell struct {
	id      string
	scheme  bool
	proto   consensus.Protocol
	problem consensus.Problem
	opts    consensus.CheckOptions
}

func mustProblem(name string) consensus.Problem {
	p, err := consensus.ParseProblem(name)
	if err != nil {
		panic(err)
	}
	return p
}

func checkCell(id string, proto consensus.Protocol, problem string, opts consensus.CheckOptions) cell {
	return cell{id: id, proto: proto, problem: mustProblem(problem), opts: opts}
}

func schemeCell(id string, proto consensus.Protocol) cell {
	return cell{id: id, scheme: true, proto: proto}
}

// plainCells are shared by explore-plain and explore-parallel, which differ
// in Parallelism alone: timed is what a pass walks, warm what a set-up walks
// once, untimed, so that every code path of the timed passes has run and its
// lazily built tables exist. The benchmark keeps issue 11's headline tree(3)
// cell, its smallest check and one scheme walk; chain(3) and scheme tree(9)
// are left out, because three passes over all five do not fit the driver's
// time cap. The self-test times the smallest cells and warms up on the same.
func plainCells(s scale) (timed, warm []cell) {
	mf := func(n int) consensus.CheckOptions { return consensus.CheckOptions{MaxFailures: n} }
	tiny := []cell{
		checkCell("star(3)/HT-IC/mf0", consensus.Star(3), "HT-IC", mf(0)),
		schemeCell("scheme/haltingcommit(3)", consensus.HaltingCommit(3)),
	}
	if s == scaleTiny {
		return tiny, tiny
	}
	return []cell{
		checkCell("tree(3)/WT-TC/mf2", consensus.Tree(3), "WT-TC", mf(2)),
		checkCell("star(3)/HT-IC/mf2", consensus.Star(3), "HT-IC", mf(2)),
		schemeCell("scheme/haltingcommit(4)", consensus.HaltingCommit(4)),
	}, append(tiny, checkCell("star(3)/HT-IC/mf1", consensus.Star(3), "HT-IC", mf(1)))
}

// reducedCells run under ReduceBoth. Against issue 11's list the benchmark
// swaps fullexchange(3) mf2 (7 s a pass) for mf1 and the omission cell's
// budget 2 for budget 1, and leaves tree(3) out; both cells keep what they
// are for: S_3 canonicalization on every successor, and a walk on which
// reductions are switched off because an omission budget is set.
func reducedCells(s scale) (timed, warm []cell) {
	red := func(mf, budget int) consensus.CheckOptions {
		o := consensus.CheckOptions{MaxFailures: mf, Reduction: consensus.ReduceBoth}
		if budget > 0 {
			o.OmissionBudget, o.MobileOmissions = budget, 1
		}
		return o
	}
	tiny := []cell{
		checkCell("star(3)/HT-IC/mf1/both", consensus.Star(3), "HT-IC", red(1, 0)),
		checkCell("ackcommit(3)/WT-TC/mf0/omit1m1/both", consensus.AckCommit(3), "WT-TC", red(0, 1)),
	}
	if s == scaleTiny {
		return tiny, tiny
	}
	return []cell{
		checkCell("fullexchange(3)/WT-IC/mf1/both", consensus.FullExchange(3), "WT-IC", red(1, 0)),
		checkCell("ackcommit(3)/WT-TC/mf1/omit1m1/both", consensus.AckCommit(3), "WT-TC", red(1, 1)),
	}, tiny
}

// exploreWL is explore-plain, explore-parallel or explore-reduced.
type exploreWL struct {
	wname, wwhy string
	cellsAt     func(scale) (timed, warm []cell)
	parallelism int
	reduced     bool
	cores       int

	cells []cell
	// lay accumulates the traced pass's counters, summed over cells.
	lay exploreLayers
}

// exploreLayers is what the traced pass reads off result structs and
// runtime.MemStats around each whole public call.
type exploreLayers struct {
	checkWall, schemeWall        float64 // seconds
	nodes, edges                 float64
	mallocs, bytes               float64
	replayWall, replayBlocked    float64 // seconds
	unreducedNodes               float64
	ampleNodes, ampleEvents      float64
	proviso, symPrunes, elisions float64
	visited, patterns            float64
	schemeMallocs                float64
	// perCell keeps each check cell's counts for the attribution estimate.
	perCell map[string]cellCounts
}

type cellCounts struct {
	nodes, edges   float64
	canonicalizing bool
}

func (w *exploreWL) name() string { return w.wname }
func (w *exploreWL) why() string  { return w.wwhy }
func (w *exploreWL) minPasses(s scale) int {
	if s == scaleTiny {
		return 1
	}
	return 3
}
func (w *exploreWL) needsCores() int { return w.cores }

func (w *exploreWL) setUp(e *env) error {
	timed, warm := w.cellsAt(e.scale)
	w.cells = timed
	for _, c := range warm {
		var p passOut
		w.runCell(&env{oracle: e.oracle}, c, &p)
		if len(p.failures) > 0 {
			return fmt.Errorf("warm-up: %s", p.failures[0])
		}
	}
	return nil
}

func (w *exploreWL) tearDown() {}

func (w *exploreWL) pass(e *env) passOut {
	var p passOut
	if e.tr != nil {
		w.lay = exploreLayers{perCell: map[string]cellCounts{}}
	}
	for _, c := range w.cells {
		w.runCell(e, c, &p)
	}
	return p
}

// runCell explores one cell and holds the result to the oracle. Under
// tracing it also reads allocation counters and the replay clock around the
// call; the untraced pass does neither.
func (w *exploreWL) runCell(e *env, c cell, p *passOut) {
	p.ops++
	ctx := context.Background()
	var before, after runtime.MemStats
	if e.tr != nil {
		runtime.ReadMemStats(&before)
	}
	if c.scheme {
		span := e.tr.begin("scheme.OfContext", c.id)
		t0 := time.Now()
		en, err := consensus.SchemeOfContext(ctx, c.proto, consensus.SchemeOptions{Parallelism: w.parallelism})
		wall := time.Since(t0)
		if err != nil {
			e.tr.end(span, 0)
			p.fail("%s: %v", c.id, err)
			return
		}
		e.tr.end(span, int64(en.Visited))
		pin, ok := e.oracle.Explore[c.id]
		switch {
		case !ok:
			p.fail("%s: no pin in expected.json (got visited=%d patterns=%d)", c.id, en.Visited, en.Set.Len())
		case en.Visited != pin.Visited || en.Set.Len() != pin.Patterns:
			p.fail("%s: visited=%d patterns=%d, pinned %d/%d", c.id, en.Visited, en.Set.Len(), pin.Visited, pin.Patterns)
		}
		if e.tr != nil {
			runtime.ReadMemStats(&after)
			w.lay.schemeWall += wall.Seconds()
			w.lay.visited += float64(en.Visited)
			w.lay.patterns += float64(en.Set.Len())
			w.lay.schemeMallocs += float64(after.Mallocs - before.Mallocs)
		}
		return
	}

	opts := c.opts
	opts.Parallelism = w.parallelism
	span := e.tr.begin("checker.CheckContext", c.id)
	t0 := time.Now()
	if e.tr != nil {
		opts.Clock = func() time.Duration { return time.Since(t0) }
	}
	x, err := consensus.CheckContext(ctx, c.proto, c.problem, opts)
	wall := time.Since(t0)
	if err != nil {
		e.tr.end(span, 0)
		p.fail("%s: %v", c.id, err)
		return
	}
	e.tr.end(span, int64(x.NodeCount))
	verdict := verdictOf(x.Conforms())
	unreduced := x.NodeCount
	if w.reduced {
		pin, ok := e.oracle.Reduced[c.id]
		unreduced = pin.UnreducedNodes
		switch {
		case !ok:
			p.fail("%s: no pin in expected.json (got %s nodes=%d)", c.id, verdict, x.NodeCount)
		case verdict != pin.Verdict:
			p.fail("%s: verdict %s, pinned %s", c.id, verdict, pin.Verdict)
		case x.NodeCount > pin.UnreducedNodes:
			p.fail("%s: %d nodes exceed the unreduced space of %d", c.id, x.NodeCount, pin.UnreducedNodes)
		}
	} else {
		pin, ok := e.oracle.Explore[c.id]
		got := explorePin{Verdict: verdict, Nodes: x.NodeCount, States: len(x.States), Terminals: x.Terminals}
		switch {
		case !ok:
			p.fail("%s: no pin in expected.json (got %+v)", c.id, got)
		case got != pin:
			p.fail("%s: got %+v, pinned %+v", c.id, got, pin)
		}
	}
	if e.tr != nil {
		runtime.ReadMemStats(&after)
		rs := x.Reduction
		l := &w.lay
		edges := float64(rs.FullEvents + rs.AmpleEvents)
		l.checkWall += wall.Seconds()
		l.nodes += float64(x.NodeCount)
		l.edges += edges
		l.mallocs += float64(after.Mallocs - before.Mallocs)
		l.bytes += float64(after.TotalAlloc - before.TotalAlloc)
		l.replayWall += x.ReplayWall.Seconds()
		l.replayBlocked += x.ReplayBlocked.Seconds()
		l.unreducedNodes += float64(unreduced)
		l.ampleNodes += float64(rs.AmpleNodes)
		l.ampleEvents += float64(rs.AmpleEvents)
		l.proviso += float64(rs.ProvisoFallbacks)
		l.symPrunes += float64(rs.SymmetryPrunes)
		l.elisions += float64(rs.ElisionPrunes)
		// The explorer canonicalizes every successor when dead-letter
		// elision or a symmetry group is armed, and arms neither under an
		// omission budget.
		canon := opts.OmissionBudget == 0 && (opts.Reduction == consensus.ReduceAmple || opts.Reduction == consensus.ReduceBoth ||
			(opts.Reduction == consensus.ReduceSymmetry && len(symmetry.ForProtocol(c.proto)) > 0))
		l.perCell[c.id] = cellCounts{nodes: float64(x.NodeCount), edges: edges, canonicalizing: canon}
	}
}

func (w *exploreWL) finish(*metrics) {}

// layers probes every cell and folds the traced pass's counters into the
// checker.* and scheme.* metrics.
func (w *exploreWL) layers(e *env, out *metrics) {
	var rs rates
	attributed := 0.0
	for _, c := range w.cells {
		pol := sim.OmissionPolicy{Budget: c.opts.OmissionBudget, Mobile: c.opts.MobileOmissions}
		maxFail := c.opts.MaxFailures
		problem := c.problem
		if c.scheme {
			// Scheme walks are failure-free; unanimity WT-IC is the
			// weakest problem every library protocol here satisfies.
			maxFail, problem = 0, mustProblem("WT-IC")
		}
		corp, err := harvest(e, c.id, c.proto, problem, maxFail, pol)
		if err != nil {
			out.put(Metric{Name: "sim.enabled_ns", Unit: "ns", NotMeasured: err.Error()})
			continue
		}
		var cellRates rates
		probeModel(e, corp, probeSim|probeReduce|probeFrontier|probePattern|probeValidate, &cellRates)
		for _, name := range cellRates.order {
			r := cellRates.m[name]
			rs.add(name, cellRates.unit[name], r.total, r.ops)
		}
		if cc, ok := w.lay.perCell[c.id]; ok {
			ns := cc.edges*cellRates.per("sim.apply_ns") + cc.nodes*(cellRates.per("sim.enabled_ns")+cellRates.per("frontier.admit_ns"))
			if cc.canonicalizing {
				ns += cc.edges * (cellRates.per("symmetry.canon_ns") + cellRates.per("sim.elide_ns"))
			}
			attributed += ns / 1e9
		}
	}
	rs.flush(out)

	l := w.lay
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	if l.nodes > 0 {
		out.set("checker.nodes", "count", l.nodes)
		out.set("checker.edges", "count", l.edges)
		out.set("checker.nodes_per_s", "1/s", div(l.nodes, l.checkWall))
		out.set("checker.allocs_per_node", "count", div(l.mallocs, l.nodes))
		out.set("checker.bytes_per_node", "B", div(l.bytes, l.nodes))
		out.set("checker.replay_share", "ratio", div(l.replayWall, l.checkWall))
		out.set("checker.replay_blocked_share", "ratio", div(l.replayBlocked, l.checkWall))
		out.put(Metric{Name: "checker.reduction_factor", Unit: "ratio", Value: div(l.unreducedNodes, l.nodes),
			Note: fmt.Sprintf("%.0f unreduced nodes / %.0f explored", l.unreducedNodes, l.nodes)})
		out.set("checker.ample_avg", "count", div(l.ampleEvents, l.ampleNodes))
		out.set("checker.proviso_fallbacks", "count", l.proviso)
		out.set("checker.symmetry_prunes", "count", l.symPrunes)
		out.set("checker.elision_prunes", "count", l.elisions)
		out.put(Metric{Name: "checker.unattributed_share", Unit: "ratio", Value: 1 - div(attributed, l.checkWall),
			Note: fmt.Sprintf("estimate: 1 - (edges*apply + nodes*(enabled+admit) + canonicalized edges*(canon+elide)) / %.3f s of CheckContext wall, probe costs taken per cell", l.checkWall)})
	}
	if l.visited > 0 {
		out.set("scheme.visited", "count", l.visited)
		out.set("scheme.patterns", "count", l.patterns)
		out.set("scheme.nodes_per_s", "1/s", div(l.visited, l.schemeWall))
		out.set("scheme.allocs_per_node", "count", div(l.schemeMallocs, l.visited))
	}
}
