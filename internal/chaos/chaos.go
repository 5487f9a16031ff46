// Package chaos is a seeded, parallel chaos-testing engine for the Dwork &
// Skeen model: it runs thousands of failure-injected random executions of a
// protocol, checks each against a consensus problem, and shrinks every
// violating schedule to a locally minimal counterexample that serializes as
// a replayable JSON trace.
//
// The paper's adversary is the scheduler — every theorem quantifies over
// all schedules under up to N−1 fail-stop failures — and the exhaustive
// checker answers that quantifier only where the configuration space is
// tractable. The chaos engine is the complement for intractable spaces: a
// Jepsen-style randomized sweep whose every run is a pure function of one
// 64-bit seed, so the whole sweep is reproducible (same seed and options ⇒
// byte-identical traces), panics in protocol code become reported
// violations instead of crashed processes, and counterexamples come back
// small enough to read.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/fingerprint"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// Options configures a chaos sweep.
type Options struct {
	// Runs is the number of randomized executions (default 1000).
	Runs int
	// Seed seeds the sweep. Every per-run seed, input vector, and failure
	// plan derives from it deterministically, so equal seeds and options
	// give equal sweeps regardless of Parallel.
	Seed int64
	// Parallel is the worker-pool size (default GOMAXPROCS). It affects
	// wall-clock time only, never results.
	Parallel int
	// MaxFailures bounds injected fail-stop failures per run. Negative
	// means N−1 (the paper's bound); zero means failure-free.
	MaxFailures int
	// MaxSteps is the per-run step budget (default 10_000). Runs that hit
	// it are reported as unresolved and checked for safety only.
	MaxSteps int
	// Minimize shrinks each violating schedule to a locally 1-minimal
	// counterexample by delta-debugging before reporting it.
	Minimize bool
	// Inputs, if non-nil, cycles through these input vectors instead of
	// drawing random ones.
	Inputs [][]sim.Bit
	// Adversary names the scheduling strategy driving each run: "uniform"
	// (or empty, the default fair scheduler), "delay", or "adaptive". See
	// NewAdversary.
	Adversary string
	// OmissionBudget bounds omission faults per run: the adversary may
	// suppress up to this many buffered deliveries. Zero disables
	// omissions, leaving runs byte-identical to pre-omission sweeps.
	OmissionBudget int
	// MobileOmissions, when positive, caps how many processors may be
	// omission-faulty simultaneously (the mobile-faults model: a
	// processor's faulty status clears when a delivery to it succeeds, so
	// the faulty set moves between rounds).
	MobileOmissions int
}

func (o Options) omission() sim.OmissionPolicy {
	return sim.OmissionPolicy{Budget: o.OmissionBudget, Mobile: o.MobileOmissions}
}

func (o Options) runs() int {
	if o.Runs == 0 {
		return 1000
	}
	return o.Runs
}

func (o Options) maxSteps() int {
	if o.MaxSteps == 0 {
		return 10_000
	}
	return o.MaxSteps
}

// Status reports how a sweep ended; the zero value is Complete.
type Status int

const (
	// StatusComplete means every planned run reached a verdict.
	StatusComplete Status = iota
	// StatusInterrupted means the context was cancelled mid-sweep; the
	// report covers the runs that finished.
	StatusInterrupted
)

// String names the status.
func (s Status) String() string {
	if s == StatusInterrupted {
		return "interrupted"
	}
	return "complete"
}

// Outcome classifies one chaos run.
type Outcome int

const (
	// OutcomeAborted means the run was cut off by cancellation before a
	// verdict (or never started).
	OutcomeAborted Outcome = iota
	// OutcomePassed means the run quiesced and satisfied the problem.
	OutcomePassed
	// OutcomeViolated means the run violated the problem (or the model
	// contracts: self-send, multi-send, revoked decision).
	OutcomeViolated
	// OutcomePanicked means protocol code panicked; the panic was
	// recovered and converted into a reported violation.
	OutcomePanicked
	// OutcomeUnresolved means the run hit MaxSteps without quiescing;
	// safety was checked, liveness could not be.
	OutcomeUnresolved
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomePassed:
		return "passed"
	case OutcomeViolated:
		return "violated"
	case OutcomePanicked:
		return "panicked"
	case OutcomeUnresolved:
		return "unresolved"
	default:
		return "aborted"
	}
}

// Failure is one failing chaos run: the violation, the (possibly shrunk)
// schedule that exhibits it, and everything needed to reproduce the run
// from scratch.
type Failure struct {
	// RunIndex is the run's position in the sweep (0-based).
	RunIndex int
	// Seed is the per-run scheduler seed derived from the sweep seed.
	Seed int64
	// Inputs is the initial input vector.
	Inputs []sim.Bit
	// Injections is the planned failure schedule (including injections
	// that never fired).
	Injections []sim.FailureAt
	// Outcome is OutcomeViolated or OutcomePanicked.
	Outcome Outcome
	// PanicValue holds the recovered panic for OutcomePanicked.
	PanicValue string
	// Violations lists what the schedule below violates (for panics, a
	// single "panic" violation).
	Violations []taxonomy.Violation
	// Schedule is the violating schedule, shrunk to a locally 1-minimal
	// counterexample when Options.Minimize was set. Empty for panics,
	// which reproduce from Seed/Inputs/Injections instead.
	Schedule sim.Schedule
	// OriginalSteps is the schedule length before shrinking.
	OriginalSteps int
	// ShrinkCandidates counts the candidate schedules evaluated while
	// shrinking (0 when Minimize was off).
	ShrinkCandidates int
	// Claims are a live run's claims for its trace to carry; nil in a sweep.
	Claims *taxonomy.Claims
}

// RunStat is one run's injection accounting, surfaced per run (not just in
// the sweep aggregate) so -json consumers can tell which runs actually
// exercised their planned faults.
type RunStat struct {
	// Run is the run's position in the sweep (0-based).
	Run int `json:"run"`
	// Seed is the per-run scheduler seed.
	Seed int64 `json:"seed"`
	// Outcome names the run's verdict.
	Outcome string `json:"outcome"`
	// InjectionsPlanned, InjectionsFired, and InjectionsUnfired account for
	// this run's crash injections.
	InjectionsPlanned int `json:"injections_planned"`
	InjectionsFired   int `json:"injections_fired"`
	InjectionsUnfired int `json:"injections_unfired"`
	// Omissions counts deliveries the adversary omission-suppressed.
	Omissions int `json:"omissions,omitempty"`
}

// Report is the result of a chaos sweep.
type Report struct {
	// Proto is the protocol's canonical name.
	Proto string
	// Problem is the problem checked.
	Problem taxonomy.Problem
	// Seed is the sweep seed.
	Seed int64
	// Runs is the number of planned runs.
	Runs int
	// Adversary names the scheduling strategy that drove the sweep
	// ("uniform" when Options left it empty).
	Adversary string
	// OmissionBudget and MobileOmissions echo the sweep's omission policy.
	OmissionBudget  int
	MobileOmissions int
	// Passed, Violated, Panicked, Unresolved, and Aborted partition the
	// planned runs by outcome.
	Passed     int
	Violated   int
	Panicked   int
	Unresolved int
	Aborted    int
	// Status records whether the sweep completed or was interrupted.
	Status Status
	// Failures lists the violating and panicking runs in run order.
	Failures []*Failure
	// InjectionsPlanned, InjectionsFired, and InjectionsUnfired account
	// for every failure injection across completed runs: unfired
	// injections (AfterStep beyond quiescence) are counted, not silently
	// believed to have been tested.
	InjectionsPlanned int
	InjectionsFired   int
	InjectionsUnfired int
	// Omissions counts deliveries omission-suppressed across completed runs.
	Omissions int
	// RunStats is per-run injection accounting in run order, one entry per
	// planned run (aborted runs report their plan with zero fired).
	RunStats []RunStat
}

// Completed returns the number of runs that reached a verdict.
func (r *Report) Completed() int { return r.Runs - r.Aborted }

// Clean reports whether the sweep found no violations and no panics.
func (r *Report) Clean() bool { return len(r.Failures) == 0 }

// RunPlan is the deterministic recipe for one run, derived from the sweep
// seed before any worker starts, so worker scheduling cannot perturb
// results. Plans are shared with the live runtime (cmd/cclive), whose soak
// mode derives its crash schedules and input vectors the same way a chaos
// sweep does.
type RunPlan struct {
	// Seed is the per-run scheduler seed.
	Seed int64
	// LinkSeed keys the link-fault schedule of distributed live runs. It
	// is a pure hash of Seed — never a draw from the master stream — so
	// plans derived before link faults existed are byte-for-byte unchanged.
	LinkSeed int64
	// Inputs is the initial input vector.
	Inputs []sim.Bit
	// Failures is the planned fail-stop injection schedule.
	Failures []sim.FailureAt
}

// linkSeed derives a run's link-fault seed from its scheduler seed with a
// splitmix64 finalizer, keeping the master RNG stream untouched.
func linkSeed(seed int64) int64 {
	return int64(fingerprint.Mix64(uint64(seed) ^ 0xd6e8feb86659fd93))
}

// runResult is one worker's verdict on one run.
type runResult struct {
	done      bool
	outcome   Outcome
	failure   *Failure
	planned   int
	fired     int
	unfired   int
	omissions int
}

// ErrOptions is wrapped by the error Run returns for a sweep it refuses to
// start because a count in its Options is negative.
var ErrOptions = errors.New("chaos: invalid options")

// Run executes a chaos sweep of the protocol against the problem. The
// context cancels gracefully: finished runs keep their verdicts, in-flight
// runs abort at their next scheduling step, and the partial report is
// returned with StatusInterrupted alongside the context's error.
func Run(ctx context.Context, proto sim.Protocol, problem taxonomy.Problem, opts Options) (*Report, error) {
	n := proto.N()
	if n < 1 {
		return nil, fmt.Errorf("chaos: protocol %s has no processors", proto.Name())
	}
	// A negative count is not a default: a sweep of no runs, or of runs
	// with no steps or no omissions, would test nothing and report that it
	// passed.
	for _, count := range []struct {
		name  string
		value int
	}{
		{"Runs", opts.Runs},
		{"MaxSteps", opts.MaxSteps},
		{"OmissionBudget", opts.OmissionBudget},
		{"MobileOmissions", opts.MobileOmissions},
	} {
		if count.value < 0 {
			return nil, fmt.Errorf("%w: %s is negative (%d)", ErrOptions, count.name, count.value)
		}
	}
	for _, in := range opts.Inputs {
		if len(in) != n {
			return nil, fmt.Errorf("chaos: input vector %v has length %d, want %d", in, len(in), n)
		}
	}
	adv, err := NewAdversary(opts.Adversary)
	if err != nil {
		return nil, err
	}
	if opts.omission().Enabled() && n > 64 {
		return nil, fmt.Errorf("chaos: omission budgets support at most 64 processors, got %d", n)
	}
	runs := opts.runs()
	maxSteps := opts.maxSteps()
	maxFail := opts.MaxFailures
	if maxFail < 0 {
		maxFail = n - 1
	}
	par := opts.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > runs {
		par = runs
	}

	plans := PlanRuns(opts.Seed, runs, n, maxFail, opts.Inputs)

	results := make([]runResult, runs)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w worker
			for i := range idxCh {
				results[i] = w.execute(ctx, proto, problem, plans[i], i, maxSteps, opts)
			}
		}()
	}
feed:
	for i := 0; i < runs; i++ {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()

	rep := &Report{
		Proto: proto.Name(), Problem: problem, Seed: opts.Seed, Runs: runs,
		Adversary:       adv.Name(),
		OmissionBudget:  opts.OmissionBudget,
		MobileOmissions: opts.MobileOmissions,
		RunStats:        make([]RunStat, 0, runs),
	}
	for i, res := range results {
		if !res.done {
			rep.Aborted++
			rep.RunStats = append(rep.RunStats, RunStat{
				Run: i, Seed: plans[i].Seed, Outcome: OutcomeAborted.String(),
				InjectionsPlanned: len(plans[i].Failures),
				InjectionsUnfired: len(plans[i].Failures),
			})
			continue
		}
		rep.InjectionsPlanned += res.planned
		rep.InjectionsFired += res.fired
		rep.InjectionsUnfired += res.unfired
		rep.Omissions += res.omissions
		rep.RunStats = append(rep.RunStats, RunStat{
			Run: i, Seed: plans[i].Seed, Outcome: res.outcome.String(),
			InjectionsPlanned: res.planned,
			InjectionsFired:   res.fired,
			InjectionsUnfired: res.unfired,
			Omissions:         res.omissions,
		})
		switch res.outcome {
		case OutcomePassed:
			rep.Passed++
		case OutcomeViolated:
			rep.Violated++
		case OutcomePanicked:
			rep.Panicked++
		case OutcomeUnresolved:
			rep.Unresolved++
		default:
			rep.Aborted++
		}
		if res.failure != nil {
			rep.Failures = append(rep.Failures, res.failure)
		}
	}
	if err := ctx.Err(); err != nil {
		rep.Status = StatusInterrupted
		return rep, fmt.Errorf("chaos: sweep of %s interrupted: %w", proto.Name(), err)
	}
	return rep, nil
}

// PlanRuns derives every run's recipe from the sweep seed in run order: the
// per-run scheduler seed, the input vector (random unless fixed vectors are
// supplied, which are cycled), and up to maxFail fail-stop injections per
// run. Equal arguments give equal plans.
func PlanRuns(seed int64, runs, n, maxFail int, fixed [][]sim.Bit) []RunPlan {
	master := rand.New(rand.NewSource(seed))
	// horizon bounds AfterStep so injections land inside typical runs; the
	// tail beyond quiescence is deliberately reachable (and reported as
	// unfired) so the sweep also exercises late failures.
	horizon := 4*n*n + 8
	plans := make([]RunPlan, runs)
	for i := range plans {
		pl := RunPlan{Seed: master.Int63()}
		pl.LinkSeed = linkSeed(pl.Seed)
		if len(fixed) > 0 {
			pl.Inputs = append([]sim.Bit(nil), fixed[i%len(fixed)]...)
		} else {
			pl.Inputs = make([]sim.Bit, n)
			for j := range pl.Inputs {
				if master.Intn(2) == 1 {
					pl.Inputs[j] = sim.One
				}
			}
		}
		if maxFail > 0 {
			k := master.Intn(maxFail + 1)
			for f := 0; f < k; f++ {
				pl.Failures = append(pl.Failures, sim.FailureAt{
					Proc:      sim.ProcID(master.Intn(n)),
					AfterStep: master.Intn(horizon),
				})
			}
		}
		plans[i] = pl
	}
	return plans
}

// worker is what one sweep goroutine keeps across the runs it executes: the
// scheduler's PRNG, reseeded per run, and the buffer each run's schedule is
// walked into. Neither outlives a run in what it reports — a Failure copies
// its schedule out.
type worker struct {
	rng   *rand.Rand
	sched sim.Schedule
}

// execute runs one plan to a verdict. A panic anywhere in protocol code is
// recovered and reported as a failure instead of crashing the sweep.
func (w *worker) execute(ctx context.Context, proto sim.Protocol, problem taxonomy.Problem, pl RunPlan, idx, maxSteps int, opts Options) (res runResult) {
	res.done = true
	res.planned = len(pl.Failures)
	// choices counts the scheduler's calls to Choose. Its n-th call comes
	// once the walk has injected every failure planned at or before n−1
	// normal steps, so a walk that panics has fired those and no others.
	choices, walked := 0, false
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("%v", r)
			if !walked {
				res.fired, res.unfired = 0, 0
				for _, f := range pl.Failures {
					if f.AfterStep < choices {
						res.fired++
					} else {
						res.unfired++
					}
				}
			}
			res.outcome = OutcomePanicked
			res.failure = &Failure{
				RunIndex:   idx,
				Seed:       pl.Seed,
				Inputs:     pl.Inputs,
				Injections: pl.Failures,
				Outcome:    OutcomePanicked,
				PanicValue: msg,
				Violations: []taxonomy.Violation{{Kind: "panic", Detail: "protocol panicked: " + msg}},
			}
		}
	}()

	// Reseeding gives the stream rand.New(rand.NewSource(pl.Seed)) would.
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(pl.Seed))
	} else {
		w.rng.Seed(pl.Seed)
	}
	rng := w.rng
	// Options were validated by Run, so the adversary name resolves.
	adv, _ := NewAdversary(opts.Adversary)
	// One configuration, stepped in place and judged as it goes: neither
	// the adversary nor the verdict reads a history, so none is kept.
	c := sim.NewConfigOmission(proto, pl.Inputs, opts.omission())
	checker := taxonomy.NewStreamChecker(problem, c)
	omissions := 0 // reported only by a run that returns: a panicking one reports none
	sched, unfired, err := sim.RandomWalk(proto, c, sim.RunnerOptions{
		MaxSteps: maxSteps,
		Failures: pl.Failures,
		Choose: func(c *sim.Config, enabled []sim.Event) int {
			choices++
			select {
			case <-ctx.Done():
				return -1
			default:
			}
			return adv.Choose(rng, proto, c, enabled)
		},
	}, w.sched[:0], func(e sim.Event, c *sim.Config) {
		if e.Type == sim.Omit {
			omissions++
		}
		checker.Observe(e, c)
	})
	w.sched, walked = sched, true
	res.unfired = len(unfired)
	res.fired = len(pl.Failures) - len(unfired)
	res.omissions = omissions

	var violations []taxonomy.Violation
	switch {
	case err == nil:
		res.outcome = OutcomePassed
		violations = checker.Finish(true)
	case errors.Is(err, sim.ErrRunAborted):
		res.outcome = OutcomeAborted
		return res
	case errors.Is(err, sim.ErrStepBudget):
		res.outcome = OutcomeUnresolved
		violations = checker.Finish(false)
	default:
		// The step surfaced a model-contract violation (self-send,
		// multi-send, revoked decision): the protocol is broken in a way
		// the taxonomy does not name, so report it under "model".
		res.outcome = OutcomeViolated
		violations = []taxonomy.Violation{{Kind: "model", Detail: err.Error()}}
	}
	if len(violations) == 0 {
		return res
	}

	res.outcome = OutcomeViolated
	f := &Failure{
		RunIndex:      idx,
		Seed:          pl.Seed,
		Inputs:        pl.Inputs,
		Injections:    pl.Failures,
		Outcome:       OutcomeViolated,
		Violations:    violations,
		Schedule:      append(sim.Schedule(nil), sched...),
		OriginalSteps: len(sched),
	}
	if opts.Minimize {
		shrunk, vs, tried := Shrink(proto, pl.Inputs, f.Schedule, problem, violations[0].Kind)
		f.Schedule = shrunk
		f.Violations = vs
		f.ShrinkCandidates = tried
	}
	res.failure = f
	return res
}
