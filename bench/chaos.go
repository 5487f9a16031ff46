package main

import (
	"context"
	"fmt"
	"time"

	consensus "repro"
	"repro/internal/chaos"
	"repro/internal/sim"
)

// chaosCell is one randomized sweep: a protocol, a problem, an adversary
// and a fault budget. shrink marks the cell that sweeps with Minimize off and
// shrinks each violating run from outside, which is the only way to time one
// shrink; the work is what Minimize does inside the sweep.
type chaosCell struct {
	id      string
	proto   consensus.Protocol
	problem consensus.Problem
	opts    consensus.ChaosOptions
	shrink  bool
}

// chaosCells sizes the two sweeps: a crash-only uniform one on which every
// run passes, and an omission-only adaptive adversary (budget 2, mobile 1, no
// crashes) under which nearly every run violates WT-TC and is shrunk. The
// second cell injects no crashes on purpose: with crashes allowed, one
// violating run in twelve has a long schedule whose shrink costs a hundred
// times the median, those few set the pass time, and it hangs on the seed.
// Omission-only shrinks are of one population (0.1 to 3 ms on tree(7)).
func chaosCells(s scale) []chaosCell {
	n, uniform, adaptive := 7, 2000, 1000
	if s == scaleTiny {
		n, uniform, adaptive = 3, 20, 10
	}
	problem := mustProblem("WT-TC")
	return []chaosCell{
		{
			id:    fmt.Sprintf("tree(%d)/WT-TC/uniform/%d", n, uniform),
			proto: consensus.Tree(n), problem: problem,
			opts: consensus.ChaosOptions{Runs: uniform, MaxFailures: -1, Minimize: true},
		},
		{
			id:    fmt.Sprintf("tree(%d)/WT-TC/adaptive/mf0/omit2m1/%d", n, adaptive),
			proto: consensus.Tree(n), problem: problem,
			opts: consensus.ChaosOptions{Runs: adaptive, MaxFailures: 0, Adversary: consensus.ChaosAdversaryAdaptive,
				OmissionBudget: 2, MobileOmissions: 1},
			shrink: true,
		},
	}
}

type chaosWL struct {
	cells  []chaosCell
	passes int
	// Per-pass throughput, and every shrink timed from outside.
	runsPerS []float64
	shrinkMs []float64
	// Traced-pass counters.
	lay struct {
		violated, omissions, candidates, shrinks float64
		plainRuns, plainWall                     float64
	}
}

func (w *chaosWL) name() string { return "chaos-sweep" }
func (w *chaosWL) why() string {
	return "one deep path per run through the random runner and Problem.Validate, no dedup: a sim change that helps breadth-first expansion but hurts long runs shows here; the adaptive cell is shrinker-bound"
}
func (w *chaosWL) minPasses(s scale) int {
	if s == scaleTiny {
		return 1
	}
	return 3
}
func (w *chaosWL) needsCores() int { return 1 }

func (w *chaosWL) setUp(e *env) error {
	*w = chaosWL{cells: chaosCells(e.scale)}
	// Warm-up: a fifth of each sweep, shrinks included, untimed and unjudged.
	warm := chaosWL{cells: chaosCells(e.scale)}
	for i := range warm.cells {
		warm.cells[i].opts.Runs = max(warm.cells[i].opts.Runs/5, 5)
	}
	if p := warm.sweep(&env{seed: e.seed}, false); len(p.failures) > 0 {
		return fmt.Errorf("warm-up: %s", p.failures[0])
	}
	return nil
}

func (w *chaosWL) tearDown() {}

// pass sweeps both cells and shrinks every violating run of the shrink
// cell. Each pass draws its own sweep seed from -seed, so a run's medians
// cover several sweeps.
func (w *chaosWL) pass(e *env) passOut { return w.sweep(e, true) }

// sweep is one pass; the warm-up sweeps shortened cells, which have no pins,
// with judged off.
func (w *chaosWL) sweep(e *env, judged bool) passOut {
	var p passOut
	ctx := context.Background()
	seed := e.seed + int64(w.passes)
	w.passes++
	traced := e.tr != nil
	t0 := time.Now()
	runs := 0
	for _, c := range w.cells {
		opts := c.opts
		opts.Seed, opts.Parallel = seed, 1
		span := e.tr.begin("chaos.Run", c.id)
		s0 := time.Now()
		rep, err := consensus.Chaos(ctx, c.proto, c.problem, opts)
		wall := time.Since(s0).Seconds()
		e.tr.end(span, int64(opts.Runs))
		p.ops += opts.Runs
		if err != nil {
			p.fail("%s: %v", c.id, err)
			continue
		}
		runs += rep.Completed()
		if judged {
			w.judge(e, c, seed, rep, &p)
		}
		if traced {
			w.lay.violated += float64(rep.Violated)
			w.lay.omissions += float64(rep.Omissions)
		}
		if !c.shrink {
			continue
		}
		if traced {
			w.lay.plainRuns += float64(rep.Completed())
			w.lay.plainWall += wall
		}
		for _, f := range rep.Failures {
			if f.Outcome != consensus.ChaosOutcomeViolated {
				continue
			}
			span := e.tr.begin("chaos.Shrink", c.id)
			s0 := time.Now()
			shrunk, vs, tried := chaos.Shrink(c.proto, f.Inputs, f.Schedule, c.problem, f.Violations[0].Kind)
			d := time.Since(s0)
			e.tr.end(span, int64(tried))
			w.shrinkMs = append(w.shrinkMs, ms(d))
			if len(vs) == 0 || len(shrunk) > len(f.Schedule) {
				p.fail("%s run %d: shrink lost the violation (%d -> %d events, %d violations)", c.id, f.RunIndex, len(f.Schedule), len(shrunk), len(vs))
			}
			if traced {
				w.lay.candidates += float64(tried)
				w.lay.shrinks++
			}
		}
	}
	w.runsPerS = append(w.runsPerS, float64(runs)/time.Since(t0).Seconds())
	return p
}

// judge holds one sweep report to the oracle: every run resolved, and the
// violated count equal to its pin where the pin applies to this seed.
func (w *chaosWL) judge(e *env, c chaosCell, seed int64, rep *consensus.ChaosReport, p *passOut) {
	if rep.Status != consensus.ChaosStatusComplete {
		p.fail("%s: sweep %s", c.id, rep.Status)
	}
	if bad := rep.Panicked + rep.Unresolved + rep.Aborted; bad > 0 {
		for i := 0; i < bad; i++ {
			p.fail("%s: %d panicked, %d unresolved, %d aborted runs", c.id, rep.Panicked, rep.Unresolved, rep.Aborted)
		}
	}
	pin, ok := e.oracle.Chaos[c.id]
	switch {
	case !ok:
		p.fail("%s: no pin in expected.json (got violated=%d at seed %d)", c.id, rep.Violated, seed)
	case (pin.AnySeed || pin.Seed == seed) && rep.Violated != pin.Violated:
		p.fail("%s: %d runs violated at seed %d, pinned %d", c.id, rep.Violated, seed, pin.Violated)
	}
}

func (w *chaosWL) finish(out *metrics) {
	out.put(Metric{Name: "runs_per_s", Unit: "1/s", Value: median(w.runsPerS), Samples: len(w.runsPerS)})
	out.put(Metric{Name: "shrink_ms_p50", Unit: "ms", Value: quantile(w.shrinkMs, 0.5), Samples: len(w.shrinkMs)})
}

func (w *chaosWL) layers(e *env, out *metrics) {
	var rs rates
	for _, c := range w.cells {
		pol := sim.OmissionPolicy{Budget: c.opts.OmissionBudget, Mobile: c.opts.MobileOmissions}
		corp, err := harvest(e, c.id, c.proto, c.problem, c.opts.MaxFailures, pol)
		if err != nil {
			out.put(Metric{Name: "sim.randomrun_ns_per_event", Unit: "ns", NotMeasured: err.Error()})
			continue
		}
		probeModel(e, corp, probeSim|probeValidate|probeChaos, &rs)
	}
	rs.flush(out)
	l := w.lay
	if l.plainWall > 0 {
		out.set("chaos.sweep_runs_per_s", "1/s", l.plainRuns/l.plainWall)
	}
	out.set("chaos.violated", "count", l.violated)
	out.set("chaos.omissions", "count", l.omissions)
	if l.shrinks > 0 {
		out.set("chaos.shrink_candidates_per_failure", "count", l.candidates/l.shrinks)
	}
}
