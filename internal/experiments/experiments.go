// Package experiments regenerates every figure and quantitative claim of
// the paper's Section 4 as a set of runnable experiments, E1 through E9.
// Each experiment returns a Report pairing the paper's claim with what the
// implementation measured; cmd/ccexp prints them and EXPERIMENTS.md records
// them.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/cells"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/protocols"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/taxonomy"
	"repro/internal/transform"
)

// Report is the outcome of one experiment.
type Report struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string
	// Artifact names the paper artifact reproduced, e.g. "Figure 1".
	Artifact string
	// Claim is the paper's statement.
	Claim string
	// Measured lists what the implementation observed.
	Measured []string
	// OK reports whether the measurement matches the claim.
	OK bool
	// Partial means the experiment was interrupted (context cancellation
	// or deadline) before its exhaustive passes finished: the measurements
	// cover a prefix only and prove nothing either way.
	Partial bool
}

// String renders the report.
func (r Report) String() string {
	status := "FAIL"
	if r.Partial {
		status = "PARTIAL"
	} else if r.OK {
		status = "ok"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s [%s]\n  paper: %s\n", r.ID, r.Artifact, status, r.Claim)
	for _, m := range r.Measured {
		fmt.Fprintf(&sb, "  measured: %s\n", m)
	}
	return sb.String()
}

// Options scales experiment effort.
type Options struct {
	// Quick skips the exhaustive model-checking passes.
	Quick bool
	// Deep adds the N=4 exhaustive solver checks to E1–E3 (failure-free:
	// with failure injection the N=4 spaces exceed the node budget).
	// Ignored when Quick is set.
	Deep bool
	// Parallelism is pinned by bench/paper.go.
	//
	// Deprecated: ignored. Every walk runs on GOMAXPROCS goroutines (its
	// shards, E5's witnesses, E7's rows), and no result depends on how
	// many.
	Parallelism int
	// Reduction selects a state-space reduction for the conformance
	// passes of E1–E3 (ample-set partial-order reduction, symmetry
	// canonicalization, both, or dead-letter elision alone). Reductions
	// preserve verdicts, so the pass/fail outcomes are unchanged; the
	// configuration counts in the measured lines shrink to the reduced
	// space. With Deep set, a non-none reduction additionally runs the
	// star(4) MaxFailures=1 lattice cell in E2, which exceeds the
	// 4M-node budget unreduced (about 475k configurations under
	// ReduceBoth, 2.3M under ReduceElide). Safety() needs an exact
	// census: E2's Corollary 6 scan reads its HT-IC walk under none or
	// elide and walks star(3) unreduced under the other modes. E7 ignores
	// this field: it always walks the dead-letter quotient, whose census
	// is the unreduced one.
	Reduction checker.Reduction
	// Context, when non-nil, bounds the exhaustive passes: on
	// cancellation or deadline the running experiment returns a Partial
	// report and the remaining passes are skipped, mirroring the
	// cccheck -timeout convention.
	Context context.Context
}

// ctx returns the configured context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// All runs every experiment in order. When Options.Context expires the
// interrupted experiment reports Partial and the remaining experiments are
// not started; callers see exactly the prefix that ran.
func All(opts Options) []Report {
	fns := []func(Options) Report{
		E1Figure1Tree,
		E2Figure2Star,
		E3Figure3Chain,
		E4Figure4Perverse,
		E5Lattice,
		E6Theorem7,
		E7Theorem2,
		E8MessageComplexity,
		E9Transforms,
	}
	var reports []Report
	for _, f := range fns {
		reports = append(reports, f(opts))
		if opts.ctx().Err() != nil {
			break
		}
	}
	return reports
}

func unanimity(t taxonomy.Termination, c taxonomy.Consistency) taxonomy.Problem {
	return taxonomy.Problem{Rule: taxonomy.UnanimityRule{}, Termination: t, Consistency: c}
}

// deepCheck runs a Deep-mode N=4 exhaustive conformance pass at the given
// failure budget. The standard cells are failure-free: at N=4 even a
// single injected failure pushes these spaces past the node budget
// unreduced (star(4) and chain(4) both exceed 4M nodes at MaxFailures=1),
// while the failure-free space stays exhaustive over all 16 input vectors.
// With a reduction enabled, E2 additionally calls this with maxFail=1 —
// the reduced star(4) space completes within the budget (≈475k
// configurations under ReduceBoth), making that lattice cell checkable
// for the first time.
func deepCheck(r Report, proto sim.Protocol, p taxonomy.Problem, maxFail int, opts Options) Report {
	x, err := checker.CheckContext(opts.ctx(), proto, p, checker.Options{
		MaxFailures: maxFail, Reduction: opts.Reduction,
	})
	if err != nil {
		return fail(r, err)
	}
	failDesc := "failure-free"
	if maxFail > 0 {
		failDesc = fmt.Sprintf("≤%d-failure", maxFail)
	}
	if !x.Conforms() {
		r.OK = false
		r.Measured = append(r.Measured, fmt.Sprintf("deep: %s violated: %s", p.Name(), x.Violations[0].String()))
	} else {
		r.Measured = append(r.Measured, fmt.Sprintf("deep: %s conforms to %s over %d %s configurations (all %d input vectors%s)",
			proto.Name(), p.Name(), x.NodeCount, failDesc, 1<<proto.N(), reductionNote(opts)))
	}
	return r
}

// reductionNote annotates a measured line with the active reduction.
func reductionNote(opts Options) string {
	if opts.Reduction == checker.ReduceNone {
		return ""
	}
	return fmt.Sprintf(", reduce=%v", opts.Reduction)
}

func ones(n int) []sim.Bit {
	v := make([]sim.Bit, n)
	for i := range v {
		v[i] = sim.One
	}
	return v
}

// E1Figure1Tree reproduces Figure 1: the tree protocol's two-phase
// communication scheme, its WT-TC conformance, and the Theorem 8 scenario
// showing its pattern cannot solve HT-IC.
func E1Figure1Tree(opts Options) Report {
	r := Report{
		ID:       "E1",
		Artifact: "Figure 1 (WT-TC tree protocol, 7 processors)",
		Claim:    "the two-phase tree scheme solves WT-TC but its pattern cannot solve HT-IC",
		OK:       true,
	}
	proto := protocols.Tree{Procs: 7}

	// Regenerate the all-ones (commit) pattern of the figure.
	en, err := scheme.EnumerateContext(opts.ctx(), proto, ones(7), scheme.Options{})
	if err != nil {
		return fail(r, err)
	}
	set := en.Set
	if set.Len() != 1 {
		r.OK = false
	}
	pat := set.Patterns()[0]
	r.Measured = append(r.Measured,
		fmt.Sprintf("all-ones scheme: %d pattern(s); commit pattern has %d messages, depth %d (phases: vals up, bias down, acks up, commit down)",
			set.Len(), pat.Size(), pat.Depth()))

	run, err := sim.RandomRun(proto, ones(7), sim.RunnerOptions{Seed: 1})
	if err != nil {
		return fail(r, err)
	}
	r.Measured = append(r.Measured, fmt.Sprintf("failure-free commit run: %d messages, %d events", run.MessagesSent(), run.Steps()))

	if !opts.Quick {
		x, err := checker.CheckContext(opts.ctx(), protocols.Tree{Procs: 3}, unanimity(taxonomy.WT, taxonomy.TC),
			checker.Options{MaxFailures: 2, Reduction: opts.Reduction})
		if err != nil {
			return fail(r, err)
		}
		if !x.Conforms() {
			r.OK = false
			r.Measured = append(r.Measured, "WT-TC violated: "+x.Violations[0].String())
		} else {
			r.Measured = append(r.Measured, fmt.Sprintf("tree(3) conforms to WT-TC over %d configurations (≤2 failures, all inputs%s)", x.NodeCount, reductionNote(opts)))
		}
		if opts.Deep {
			r = deepCheck(r, protocols.Tree{Procs: 4}, unanimity(taxonomy.WT, taxonomy.TC), 0, opts)
		}
	}

	for _, ev := range []core.Evidence{core.Theorem8Pattern(), core.Theorem8Replay()} {
		if !ev.OK {
			r.OK = false
		}
		r.Measured = append(r.Measured, ev.String())
	}
	return r
}

// E2Figure2Star reproduces Figure 2: the centralized protocol solves HT-IC,
// violates Corollary 6, and breaks total consistency under failures.
func E2Figure2Star(opts Options) Report {
	r := Report{
		ID:       "E2",
		Artifact: "Figure 2 (HT-IC star protocol)",
		Claim:    "solves HT-IC; not WT-TC — the coordinator decides and halts before anyone shares its bias (Corollary 6 violated)",
		OK:       true,
	}
	run, err := sim.RandomRun(protocols.Star{Procs: 5}, ones(5), sim.RunnerOptions{Seed: 1})
	if err != nil {
		return fail(r, err)
	}
	r.Measured = append(r.Measured,
		fmt.Sprintf("failure-free N=5 run: %d messages (inputs + decision broadcast + relays), all halted", run.MessagesSent()))

	if opts.Quick {
		return r
	}
	x, err := checker.CheckContext(opts.ctx(), protocols.Star{Procs: 3}, unanimity(taxonomy.HT, taxonomy.IC),
		checker.Options{MaxFailures: 2, Reduction: opts.Reduction})
	if err != nil {
		return fail(r, err)
	}
	if !x.Conforms() {
		r.OK = false
		r.Measured = append(r.Measured, "HT-IC violated: "+x.Violations[0].String())
	} else {
		r.Measured = append(r.Measured, fmt.Sprintf("star(3) conforms to HT-IC over %d configurations%s", x.NodeCount, reductionNote(opts)))
	}
	if opts.Deep {
		r = deepCheck(r, protocols.Star{Procs: 4}, unanimity(taxonomy.HT, taxonomy.IC), 0, opts)
		if opts.Reduction != checker.ReduceNone {
			// The previously-infeasible lattice cell: star(4) with one
			// injected failure exceeds the 4M-node budget unreduced, but
			// the reduced quotient completes.
			r = deepCheck(r, protocols.Star{Procs: 4}, unanimity(taxonomy.HT, taxonomy.IC), 1, opts)
		}
	}

	xTC, err := checker.CheckContext(opts.ctx(), protocols.Star{Procs: 3}, unanimity(taxonomy.WT, taxonomy.TC),
		checker.Options{MaxFailures: 2, StopAtFirstViolation: true})
	if err != nil {
		return fail(r, err)
	}
	if xTC.Conforms() {
		r.OK = false
		r.Measured = append(r.Measured, "unexpectedly satisfied WT-TC")
	} else {
		r.Measured = append(r.Measured, "WT-TC violation found: "+xTC.Violations[0].Detail)
	}

	// Safety() inspects every accessible state, so it needs an exact
	// census: the HT-IC walk above when that ran unreduced or elided, its
	// own unreduced walk otherwise.
	xS := x
	if !opts.Reduction.CensusExact() {
		xS, err = checker.ExploreContext(opts.ctx(), protocols.Star{Procs: 3}, checker.Options{MaxFailures: 2})
		if err != nil {
			return fail(r, err)
		}
	}
	rep := xS.Safety()
	if len(rep.Corollary6) == 0 {
		r.OK = false
		r.Measured = append(r.Measured, "no Corollary 6 violation found — unexpected")
	} else {
		r.Measured = append(r.Measured, "Corollary 6 violation: "+rep.Corollary6[0].Detail)
	}
	return r
}

// E3Figure3Chain reproduces Figure 3: the chain protocol's unique
// failure-free pattern, WT-IC conformance, and the amnesic scenario of
// Theorem 13.
func E3Figure3Chain(opts Options) Report {
	r := Report{
		ID:       "E3",
		Artifact: "Figure 3 (WT-IC chain protocol)",
		Claim:    "one failure-free pattern (inputs to p0, then a decision chain); solves WT-IC; the pattern cannot support ST-IC",
		OK:       true,
	}
	set, err := scheme.Of(protocols.Chain{Procs: 4}, scheme.Options{})
	if err != nil {
		return fail(r, err)
	}
	if set.Len() != 1 {
		r.OK = false
	}
	pat := set.Patterns()[0]
	r.Measured = append(r.Measured,
		fmt.Sprintf("scheme size %d; the pattern has %d messages, depth %d (N−1 inputs + N−1 chain links)",
			set.Len(), pat.Size(), pat.Depth()))

	if !opts.Quick {
		x, err := checker.CheckContext(opts.ctx(), protocols.Chain{Procs: 3}, unanimity(taxonomy.WT, taxonomy.IC),
			checker.Options{MaxFailures: 2, Reduction: opts.Reduction})
		if err != nil {
			return fail(r, err)
		}
		if !x.Conforms() {
			r.OK = false
			r.Measured = append(r.Measured, "WT-IC violated: "+x.Violations[0].String())
		} else {
			r.Measured = append(r.Measured, fmt.Sprintf("chain(3) conforms to WT-IC over %d configurations%s", x.NodeCount, reductionNote(opts)))
		}
		if opts.Deep {
			r = deepCheck(r, protocols.Chain{Procs: 4}, unanimity(taxonomy.WT, taxonomy.IC), 0, opts)
		}
	}

	ev := core.Theorem13ChainReplay()
	if !ev.OK {
		r.OK = false
	}
	r.Measured = append(r.Measured, ev.String())
	return r
}

// E4Figure4Perverse reproduces Figure 4: exactly four failure-free patterns
// obeying the dashed-message rules, WT-TC conformance, and the forgetful-p0
// contradiction.
func E4Figure4Perverse(opts Options) Report {
	r := Report{
		ID:       "E4",
		Artifact: "Figure 4 (perverse WT-TC protocol)",
		Claim:    "exactly 4 failure-free patterns (none / m1 / m2 / m1,m2,m3); no ST-TC protocol shares the scheme",
		OK:       true,
	}
	en, err := scheme.EnumerateContext(opts.ctx(), protocols.Perverse{}, ones(4), scheme.Options{})
	if err != nil {
		return fail(r, err)
	}
	set := en.Set
	r.Measured = append(r.Measured, fmt.Sprintf("all-ones enumeration: %d patterns", set.Len()))
	if set.Len() != 4 {
		r.OK = false
	}

	ev := core.Theorem13Perverse()
	if !ev.OK {
		r.OK = false
	}
	r.Measured = append(r.Measured, ev.String())

	if !opts.Quick {
		// Failure-injected exploration of the perverse protocol is
		// intractable (the race bookkeeping multiplies the space), so
		// the exhaustive pass is failure-free; randomized failure
		// injection covers the rest (see the lattice witnesses).
		x, err := checker.CheckContext(opts.ctx(), protocols.Perverse{}, unanimity(taxonomy.WT, taxonomy.TC),
			checker.Options{MaxFailures: 0})
		if err != nil {
			return fail(r, err)
		}
		if !x.Conforms() {
			r.OK = false
			r.Measured = append(r.Measured, "WT-TC violated: "+x.Violations[0].String())
		} else {
			r.Measured = append(r.Measured, fmt.Sprintf("perverse conforms to WT-TC over %d failure-free configurations (failure runs covered by the seeded chaos sweep)", x.NodeCount))
		}
	}
	return r
}

// E5Lattice reproduces the closing diagram.
func E5Lattice(opts Options) Report {
	r := Report{
		ID:       "E5",
		Artifact: "Closing diagram (six-problem lattice)",
		Claim:    "WT≺ST≺HT on each consistency, IC≺TC on each termination, all strict; HT-IC incomparable to WT-TC and ST-TC",
		OK:       true,
	}
	l := core.BuildLattice()
	evidence := core.Witnesses(core.WitnessOptions{Exhaustive: !opts.Quick, Context: opts.ctx()})
	if err := opts.ctx().Err(); err != nil {
		// The witnesses cut short report the interruption, not a verdict;
		// a count of the ones that finished would read as a claim.
		return fail(r, err)
	}
	l.Evidence = evidence
	if !core.AllOK(evidence) {
		r.OK = false
	}
	okCount := 0
	for _, ev := range evidence {
		if ev.OK {
			okCount++
		}
	}
	r.Measured = append(r.Measured,
		fmt.Sprintf("%d/%d machine-checked witnesses verified; derived matrix matches the diagram", okCount, len(evidence)))
	for _, row := range strings.Split(strings.TrimRight(l.Render(), "\n"), "\n") {
		r.Measured = append(r.Measured, row)
	}
	return r
}

// E6Theorem7 reproduces the O(N²) step bound of the termination protocol.
func E6Theorem7(opts Options) Report {
	r := Report{
		ID:       "E6",
		Artifact: "Theorem 7 / Appendix (termination protocol)",
		Claim:    "WT-TC is established from any safe configuration within O(N²) steps per processor",
		OK:       true,
	}
	sizes := []int{2, 3, 4, 5, 6, 7, 8}
	if opts.Quick {
		sizes = []int{2, 3, 4, 5}
	}
	r.Measured = append(r.Measured, fmt.Sprintf("%3s %16s %16s %8s", "N", "max steps/proc", "bound 2N(N-1)+N", "within"))
	for _, n := range sizes {
		maxSteps := 0
		for seed := int64(0); seed < 20; seed++ {
			inputs := make([]sim.Bit, n)
			for i := range inputs {
				if (seed>>uint(i))&1 == 1 {
					inputs[i] = sim.One
				}
			}
			var failures []sim.FailureAt
			if seed%3 == 1 && n > 2 {
				failures = append(failures, sim.FailureAt{Proc: sim.ProcID(seed) % sim.ProcID(n), AfterStep: int(seed) % 7})
			}
			run, err := sim.RandomRun(protocols.Termination{Procs: n}, inputs, sim.RunnerOptions{Seed: seed, Failures: failures})
			if err != nil {
				return fail(r, err)
			}
			for p := 0; p < n; p++ {
				if s := run.StepsOf(sim.ProcID(p)); s > maxSteps {
					maxSteps = s
				}
			}
		}
		bound := 2*n*(n-1) + n
		within := maxSteps <= bound
		if !within {
			r.OK = false
		}
		r.Measured = append(r.Measured, fmt.Sprintf("%3d %16d %16d %8v", n, maxSteps, bound, within))
	}
	return r
}

// E7Theorem2 reproduces the safe-state analysis: all states of the WT-TC
// protocols are safe; the star protocol and the naive full exchange are not.
func E7Theorem2(opts Options) Report {
	r := Report{
		ID:       "E7",
		Artifact: "Theorem 2 (safe states) and Corollary 6",
		Claim:    "every accessible state of a WT-TC protocol is safe; protocols that are not WT-TC exhibit unsafe states or bias violations",
		OK:       true,
	}
	if opts.Quick {
		r.Measured = append(r.Measured, "(skipped in quick mode: requires exhaustive exploration)")
		return r
	}
	// Each row walks the dead-letter quotient (ReduceElide): it publishes
	// the unreduced census, so Safety is exact on it, over a fraction of
	// the nodes (fullexchange(3) mf1: 705 904 → 171 496). The rows share
	// nothing and run as concurrent cells, largest first; nodes is about
	// each elided walk's size.
	type row struct {
		proto    sim.Protocol
		wantSafe bool
		maxFail  int
		nodes    int
	}
	rows := []row{
		{protocols.Tree{Procs: 3}, true, 2, 23_962},
		{protocols.AckCommit{Procs: 3}, true, 2, 27_761},
		{protocols.Perverse{}, true, 0, 23_354},
		{protocols.Star{Procs: 3}, false, 2, 8_577},
		{protocols.FullExchange{Procs: 3}, false, 1, 171_496},
	}
	reps := make([]*checker.SafetyReport, len(rows))
	errs := make([]error, len(rows))
	costs := make([]int, len(rows))
	for i, row := range rows {
		costs[i] = row.nodes
	}
	cells.Run(costs, func(i int) {
		x, err := checker.ExploreContext(opts.ctx(), rows[i].proto,
			checker.Options{MaxFailures: rows[i].maxFail, Reduction: checker.ReduceElide})
		if err != nil {
			errs[i] = err
			return
		}
		reps[i] = x.Safety()
	})
	for _, err := range errs {
		if err != nil {
			return fail(r, err)
		}
	}
	r.Measured = append(r.Measured, fmt.Sprintf("%-18s %8s %8s %8s %10s", "protocol", "states", "unsafe", "cor6", "as claimed"))
	for i, row := range rows {
		rep := reps[i]
		// A partial report proves no absence, so it never stands as claimed.
		asClaimed := !rep.Partial && rep.AllSafe() == row.wantSafe
		if row.wantSafe {
			asClaimed = asClaimed && len(rep.Corollary6) == 0
		}
		if !asClaimed {
			r.OK = false
		}
		r.Measured = append(r.Measured, fmt.Sprintf("%-18s %8d %8d %8d %10v",
			row.proto.Name(), rep.TotalStates, len(rep.Unsafe), len(rep.Corollary6), asClaimed))
	}
	return r
}

// E8MessageComplexity measures failure-free message counts across the
// protocol library: the executable form of the introduction's claim that
// reducibility bounds message complexity (harder problems need richer
// communication).
func E8MessageComplexity(opts Options) Report {
	r := Report{
		ID:       "E8",
		Artifact: "Message complexity (introduction / reducibility consequence)",
		Claim:    "problems higher in the lattice require more failure-free messages: chain (WT-IC) < ack-commit (WT-TC) < star (HT-IC) ~ halting commit (HT-TC)",
		OK:       true,
	}
	sizes := []int{3, 5, 7, 9}
	if opts.Quick {
		sizes = []int{3, 5}
	}
	r.Measured = append(r.Measured, fmt.Sprintf("%3s %14s %16s %12s %18s %16s", "N",
		"chain(WT-IC)", "ackcommit(WT-TC)", "star(HT-IC)", "haltcommit(HT-TC)", "fullexch(WT-IC)"))
	for _, n := range sizes {
		counts := make([]int, 5)
		protos := []sim.Protocol{
			protocols.Chain{Procs: n},
			protocols.AckCommit{Procs: n},
			protocols.Star{Procs: n},
			protocols.HaltingCommit{Procs: n},
			protocols.FullExchange{Procs: n},
		}
		for i, proto := range protos {
			run, err := sim.RandomRun(proto, ones(n), sim.RunnerOptions{Seed: 7})
			if err != nil {
				return fail(r, err)
			}
			counts[i] = run.MessagesSent()
		}
		r.Measured = append(r.Measured, fmt.Sprintf("%3d %14d %16d %12d %18d %16d",
			n, counts[0], counts[1], counts[2], counts[3], counts[4]))
		// Shape check: the WT-IC chain is cheapest; the halting TC
		// protocol costs at least as much as the plain commit.
		if !(counts[0] < counts[1] && counts[1] <= counts[3] && counts[0] < counts[2]) {
			r.OK = false
		}
	}

	// The dual axis: pattern depth — the longest causal chain, i.e. the
	// execution's latency in message delays. Because the model serializes
	// a sender's messages (one per sending step), broadcast fan-out costs
	// depth too: the chain's depth is exactly N (one vote, then N−1
	// forwarding hops), while the two-phase ack-commit pays 2(N−1) for
	// its two serialized coordinator broadcasts plus the vote and ack.
	r.Measured = append(r.Measured, "", "pattern depth (longest causal chain = latency in message delays):")
	r.Measured = append(r.Measured, fmt.Sprintf("%3s %14s %16s %12s %18s", "N",
		"chain(WT-IC)", "ackcommit(WT-TC)", "star(HT-IC)", "haltcommit(HT-TC)"))
	for _, n := range sizes {
		depths := make([]int, 4)
		protos := []sim.Protocol{
			protocols.Chain{Procs: n},
			protocols.AckCommit{Procs: n},
			protocols.Star{Procs: n},
			protocols.HaltingCommit{Procs: n},
		}
		for i, proto := range protos {
			run, err := sim.RandomRun(proto, ones(n), sim.RunnerOptions{Seed: 7})
			if err != nil {
				return fail(r, err)
			}
			depths[i] = pattern.FromRun(run).Depth()
		}
		r.Measured = append(r.Measured, fmt.Sprintf("%3d %14d %16d %12d %18d",
			n, depths[0], depths[1], depths[2], depths[3]))
		// Chain: vote + N−1 forwarding hops. Ack-commit: vote + bias
		// broadcast (N−1 serialized sends) + ack + commit broadcast.
		if depths[0] != n || depths[1] != 2+2*(n-1) {
			r.OK = false
		}
	}
	return r
}

// E9Transforms reproduces the Section 3 transformations: padding preserves
// schemes, E̅-elimination shrinks them, and both preserve unanimity
// decisions.
func E9Transforms(opts Options) Report {
	r := Report{
		ID:       "E9",
		Artifact: "Section 3 transformations (total communication, E̅ elimination)",
		Claim:    "padding preserves the scheme; the E̅-free simulation's patterns are a subset; failure-free decisions are unchanged",
		OK:       true,
	}
	inner := protocols.Chain{Procs: 3}
	s0, err := scheme.Of(inner, scheme.Options{})
	if err != nil {
		return fail(r, err)
	}
	sTC, err := scheme.Of(transform.TotalComm{Inner: inner}, scheme.Options{})
	if err != nil {
		return fail(r, err)
	}
	sEB, err := scheme.Of(transform.EliminateEBar{Inner: inner}, scheme.Options{})
	if err != nil {
		return fail(r, err)
	}
	if !s0.Equal(sTC) {
		r.OK = false
		r.Measured = append(r.Measured, "padding changed the scheme — unexpected")
	} else {
		r.Measured = append(r.Measured, fmt.Sprintf("total-communication scheme equals the original (%d pattern(s))", s0.Len()))
	}
	if !sEB.SubsetOf(s0) {
		r.OK = false
		r.Measured = append(r.Measured, "E̅-elimination enlarged the scheme — unexpected")
	} else {
		r.Measured = append(r.Measured, fmt.Sprintf("E̅-free scheme ⊆ original (%d ⊆ %d patterns)", sEB.Len(), s0.Len()))
	}
	for _, inputs := range sim.AllInputs(3) {
		want := sim.Unanimity(inputs)
		for _, proto := range []sim.Protocol{transform.TotalComm{Inner: inner}, transform.EliminateEBar{Inner: inner}} {
			run, err := sim.RandomRun(proto, inputs, sim.RunnerOptions{Seed: 5})
			if err != nil {
				return fail(r, err)
			}
			for p := 0; p < 3; p++ {
				if d, ok := run.DecisionOf(sim.ProcID(p)); !ok || d != want {
					r.OK = false
					r.Measured = append(r.Measured, fmt.Sprintf("%s: wrong decision on %v", proto.Name(), inputs))
				}
			}
		}
	}
	r.Measured = append(r.Measured, "failure-free decisions preserved across all input vectors")
	return r
}

func fail(r Report, err error) Report {
	r.OK = false
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		r.Partial = true
		r.Measured = append(r.Measured, "interrupted: "+err.Error()+" (partial prefix only; rerun without a timeout for the full pass)")
		return r
	}
	r.Measured = append(r.Measured, "error: "+err.Error())
	return r
}
