package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
)

// paperWL is paper-artefact: the nine reproduction experiments a reader
// runs with ccexp, sequentially, each timed from outside.
type paperWL struct {
	// last holds the most recent pass's seconds per experiment.
	last [9]float64
}

var experimentFns = [9]func(experiments.Options) experiments.Report{
	experiments.E1Figure1Tree, experiments.E2Figure2Star, experiments.E3Figure3Chain,
	experiments.E4Figure4Perverse, experiments.E5Lattice, experiments.E6Theorem7,
	experiments.E7Theorem2, experiments.E8MessageComplexity, experiments.E9Transforms,
}

func (w *paperWL) name() string { return "paper-artefact" }
func (w *paperWL) why() string {
	return "the whole reproduction a reader runs; the only workload that reaches core.Witnesses, checker.Safety, the scenario driver and transform"
}
func (w *paperWL) minPasses(scale) int { return 1 }
func (w *paperWL) needsCores() int     { return 1 }

// setUp warms with the quick variant of every experiment: it builds each
// protocol and runs each witness once without the exhaustive passes.
func (w *paperWL) setUp(*env) error {
	for i, f := range experimentFns {
		if rep := f(experiments.Options{Quick: true, Parallelism: 1}); !rep.OK {
			return fmt.Errorf("warm-up: quick E%d failed: %s", i+1, strings.Join(rep.Measured, "; "))
		}
	}
	return nil
}

func (w *paperWL) tearDown() {}

func (w *paperWL) pass(e *env) passOut {
	var p passOut
	opts := experiments.Options{Quick: e.scale == scaleTiny, Parallelism: 1}
	for i, f := range experimentFns {
		p.ops++
		id := fmt.Sprintf("E%d", i+1)
		span := e.tr.begin("experiments."+id, id)
		t0 := time.Now()
		rep := f(opts)
		wall := time.Since(t0)
		e.tr.end(span, 1)
		w.last[i] = wall.Seconds()
		if !rep.OK || rep.Partial {
			p.fail("%s (%s): ok=%v partial=%v: %s", id, rep.Artifact, rep.OK, rep.Partial, strings.Join(rep.Measured, "; "))
		}
	}
	return p
}

func (w *paperWL) finish(*metrics) {}

func (w *paperWL) layers(_ *env, out *metrics) {
	for i, s := range w.last {
		out.set(fmt.Sprintf("experiments.e%d_s", i+1), "s", s)
	}
}
