package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cells"
	"repro/internal/chaos"
	"repro/internal/checker"
	"repro/internal/protocols"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// WitnessOptions scales the verification effort.
type WitnessOptions struct {
	// Exhaustive enables the model-checking witnesses: every solving
	// protocol is verified against its problem over all inputs and
	// failure patterns at small N. Scenario replays and scheme facts run
	// regardless.
	Exhaustive bool
	// MaxFailures bounds failure injection for the exhaustive checks
	// (default 2).
	MaxFailures int
	// Context, when non-nil, bounds the exhaustive walks and the chaos
	// sweep: once it is cancelled or past its deadline, each remaining one
	// returns promptly and its evidence reports the interruption instead
	// of a verdict.
	Context context.Context
}

// ctx returns the configured context, defaulting to Background.
func (o WitnessOptions) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o WitnessOptions) maxFailures() int {
	if o.MaxFailures == 0 {
		return 2
	}
	return o.MaxFailures
}

// Witnesses runs the machine-checked evidence behind the lattice's base
// facts and returns it in citation order. The witnesses share nothing, so
// they run as concurrent cells (internal/cells), each one sequential and
// deterministic; the evidence is assembled by citation index, so it does
// not depend on the schedule.
func Witnesses(opts WitnessOptions) []Evidence {
	var cs []witnessCell
	if opts.Exhaustive {
		cs = append(cs, solverWitnesses(opts)...)
	}
	for _, f := range []func() Evidence{
		Theorem8Pattern,
		Theorem8Replay,
		Theorem13ChainReplay,
		Theorem13Perverse,
		Corollary11SchemeFact,
	} {
		cs = append(cs, witnessCell{run: func() []Evidence { return []Evidence{f()} }})
	}
	if opts.Exhaustive {
		cs = append(cs,
			witnessCell{cost: 3_000, run: func() []Evidence { return []Evidence{Theorem8StarChecker(opts)} }},
			witnessCell{cost: 30_000, run: func() []Evidence { return []Evidence{Theorem13ChainChecker(opts)} }},
		)
	}
	out := make([][]Evidence, len(cs))
	costs := make([]int, len(cs))
	for i, c := range cs {
		costs[i] = c.cost
	}
	cells.Run(costs, func(i int) { out[i] = cs[i].run() })
	return slices.Concat(out...)
}

// witnessCell is one independent piece of Witnesses: the evidence it
// yields, in citation order, and its cost — about the nodes it walks — by
// which the largest cells start first.
type witnessCell struct {
	cost int
	run  func() []Evidence
}

// AllOK reports whether every piece of evidence verified.
func AllOK(evidence []Evidence) bool {
	for _, e := range evidence {
		if !e.OK {
			return false
		}
	}
	return true
}

// solverWitnesses model-checks one solving protocol per problem: the
// executable content of "each problem in the diagram is solvable", which
// also grounds Theorem 1's reductions (a protocol for the stronger problem
// is checked against the weaker one too — the same runs judged by a weaker
// predicate, so each protocol's space is walked once for all its problems).
// Each protocol's walk is one cell; the chaos sweep of the perverse
// protocol is another.
func solverWitnesses(opts WitnessOptions) []witnessCell {
	cases := []struct {
		proto    sim.Protocol
		problems []taxonomy.Problem
		source   string
		nodes    int
	}{
		{
			proto: protocols.Tree{Procs: 3},
			problems: []taxonomy.Problem{
				problemOf(taxonomy.WT, taxonomy.TC),
				problemOf(taxonomy.WT, taxonomy.IC),
			},
			source: "Figure 1 tree protocol",
			nodes:  103_366,
		},
		{
			proto: protocols.Tree{Procs: 3, ST: true},
			problems: []taxonomy.Problem{
				problemOf(taxonomy.ST, taxonomy.TC),
				problemOf(taxonomy.ST, taxonomy.IC),
				problemOf(taxonomy.WT, taxonomy.TC),
			},
			source: "Corollary 11 amnesic tree variant",
			nodes:  72_707,
		},
		{
			proto: protocols.Star{Procs: 3},
			problems: []taxonomy.Problem{
				problemOf(taxonomy.HT, taxonomy.IC),
				problemOf(taxonomy.ST, taxonomy.IC),
				problemOf(taxonomy.WT, taxonomy.IC),
			},
			source: "Figure 2 star protocol",
			nodes:  39_503,
		},
		{
			proto: protocols.Chain{Procs: 3},
			problems: []taxonomy.Problem{
				problemOf(taxonomy.WT, taxonomy.IC),
			},
			source: "Figure 3 chain protocol",
			nodes:  95_772,
		},
		{
			proto: protocols.Perverse{},
			problems: []taxonomy.Problem{
				problemOf(taxonomy.WT, taxonomy.TC),
			},
			source: "Figure 4 perverse protocol",
			nodes:  23_354,
		},
		{
			proto: protocols.HaltingCommit{Procs: 3},
			problems: []taxonomy.Problem{
				problemOf(taxonomy.HT, taxonomy.TC),
			},
			source: "halting commit (HT-TC construction)",
			nodes:  86_911,
		},
	}

	out := []witnessCell{{cost: 2_000, run: func() []Evidence { return []Evidence{perverseFailureAgreement(opts)} }}}
	for _, c := range cases {
		out = append(out, witnessCell{cost: c.nodes, run: func() []Evidence {
			return solverCheck(opts, c.proto, c.problems, c.source)
		}})
	}
	return out
}

// solverCheck walks proto's space once and judges it against each of
// problems, one piece of evidence per problem.
func solverCheck(opts WitnessOptions, proto sim.Protocol, problems []taxonomy.Problem, source string) []Evidence {
	copts := checker.Options{MaxFailures: opts.maxFailures()}
	if proto.Name() == (protocols.Perverse{}).Name() {
		// The perverse protocol's race bookkeeping makes its
		// failure-injected space intractable to enumerate; it is checked
		// exhaustively failure-free here, and its failure behaviour is
		// covered by randomized injection (perverseFailureAgreement).
		copts.MaxFailures = 0
	}
	failNote := fmt.Sprintf("≤%d failures", copts.MaxFailures)
	if copts.MaxFailures == 0 {
		failNote = "failure-free (failure runs covered by the chaos sweep)"
	}
	xs, err := checker.CheckAll(opts.ctx(), proto, problems, copts)
	var out []Evidence
	for i, p := range problems {
		ev := Evidence{
			Name:  "Solver check (" + source + ")",
			Claim: fmt.Sprintf("%s solves %s over all inputs, %s", proto.Name(), p.Name(), failNote),
		}
		if err != nil {
			ev.Details = append(ev.Details, err.Error())
			out = append(out, ev)
			continue
		}
		x := xs[i]
		ev.OK = x.Conforms()
		ev.Details = append(ev.Details, fmt.Sprintf("%d nodes, %d states, %d terminal configurations",
			x.NodeCount, len(x.States), x.Terminals))
		if !ev.OK {
			ev.Details = append(ev.Details, "violation: "+x.Violations[0].String())
		}
		out = append(out, ev)
	}
	return out
}

// Theorem8StarChecker verifies the second half of Theorem 8: the Figure 2
// protocol, which solves HT-IC, violates total consistency — so WT-TC does
// not reduce to HT-IC.
func Theorem8StarChecker(opts WitnessOptions) Evidence {
	ev := Evidence{
		Name:  "Theorem 8 (second half)",
		Claim: "the Figure 2 star protocol violates total consistency under failures",
	}
	x, err := checker.CheckContext(opts.ctx(), protocols.Star{Procs: 3}, problemOf(taxonomy.WT, taxonomy.TC),
		checker.Options{MaxFailures: opts.maxFailures(), StopAtFirstViolation: true})
	if err != nil {
		ev.Details = append(ev.Details, err.Error())
		return ev
	}
	for _, v := range x.Violations {
		if v.Kind == "TC" {
			ev.OK = true
			ev.Details = append(ev.Details, "violation found: "+v.Detail)
			return ev
		}
	}
	ev.Details = append(ev.Details, "no TC violation found — unexpected")
	return ev
}

// Corollary11SchemeFact verifies that the amnesic tree variant has exactly
// the same failure-free scheme as the original tree: the ST-TC protocol of
// Corollary 11 inherits Figure 1's communication patterns, so HT-IC does
// not reduce to ST-TC by the same pattern argument as Theorem 8.
func Corollary11SchemeFact() Evidence {
	ev := Evidence{
		Name:  "Corollary 11 (scheme fact)",
		Claim: "the amnesic tree variant has the same scheme as Figure 1's tree",
	}
	s1, err := scheme.Of(protocols.Tree{Procs: 3}, scheme.Options{})
	if err != nil {
		ev.Details = append(ev.Details, err.Error())
		return ev
	}
	s2, err := scheme.Of(protocols.Tree{Procs: 3, ST: true}, scheme.Options{})
	if err != nil {
		ev.Details = append(ev.Details, err.Error())
		return ev
	}
	if !s1.Equal(s2) {
		ev.Details = append(ev.Details, "schemes differ — amnesia altered the communication patterns")
		return ev
	}
	ev.OK = true
	ev.Details = append(ev.Details, fmt.Sprintf("schemes equal (%d patterns): amnesia only renames states", s1.Len()))
	return ev
}

func problemOf(t taxonomy.Termination, c taxonomy.Consistency) taxonomy.Problem {
	return taxonomy.Problem{Rule: taxonomy.UnanimityRule{}, Termination: t, Consistency: c}
}

// perverseFailureAgreement sweeps randomized failure-injected executions of
// the perverse protocol through the chaos engine and asserts the full WT-TC
// specification on each — the sampled complement to its failure-free
// exhaustive check. The sweep is seeded and reproducible; any violation
// would come back as a shrunk, minimal counterexample schedule.
func perverseFailureAgreement(opts WitnessOptions) Evidence {
	ev := Evidence{
		Name:  "Solver check (Figure 4 perverse protocol, randomized failures)",
		Claim: "a seeded 400-run chaos sweep keeps WT-TC under unanimity",
	}
	rep, err := chaos.Run(opts.ctx(), protocols.Perverse{},
		problemOf(taxonomy.WT, taxonomy.TC),
		chaos.Options{Runs: 400, Seed: 1984, MaxFailures: 2, Minimize: true})
	if err != nil {
		ev.Details = append(ev.Details, err.Error())
		return ev
	}
	if !rep.Clean() {
		f := rep.Failures[0]
		ev.Details = append(ev.Details, fmt.Sprintf("run %d (seed %d, inputs %v): %s (schedule shrunk %d → %d events)",
			f.RunIndex, f.Seed, f.Inputs, f.Violations[0], f.OriginalSteps, len(f.Schedule)))
		return ev
	}
	if rep.Unresolved > 0 {
		ev.Details = append(ev.Details, fmt.Sprintf("%d runs did not quiesce within the step budget", rep.Unresolved))
		return ev
	}
	ev.OK = true
	ev.Details = append(ev.Details, fmt.Sprintf(
		"%d runs passed; %d/%d planned failure injections fired (%d unfired, reported rather than silently skipped)",
		rep.Passed, rep.InjectionsFired, rep.InjectionsPlanned, rep.InjectionsUnfired))
	return ev
}
