package sim

import (
	"errors"
	"fmt"
	"math/rand"
)

// Run is a schedule together with its configurations: the paper's notion of
// a run from an initial configuration (an execution). Configs[0] is the
// initial configuration and Configs[i+1] = Schedule[i](Configs[i]).
type Run struct {
	Proto    Protocol
	Schedule Schedule
	Configs  []*Config
	Effects  []Effect
	// Unfired lists the failure injections the scheduler never applied:
	// their AfterStep lies beyond the point where the run quiesced (or was
	// cut off). A sweep that treats such a run as failure-tested would be
	// fooling itself, so RandomRun always reports them.
	Unfired []FailureAt
}

// NewRun returns an empty run positioned at the protocol's initial
// configuration for the given inputs, ready to be grown with Extend. This is
// the entry point for replaying externally recorded schedules (chaos traces,
// live-runtime conformance) one event at a time.
func NewRun(proto Protocol, inputs []Bit) (*Run, error) {
	if len(inputs) != proto.N() {
		return nil, fmt.Errorf("sim: protocol %s wants %d inputs, got %d", proto.Name(), proto.N(), len(inputs))
	}
	return &Run{Proto: proto, Configs: []*Config{NewConfig(proto, inputs)}}, nil
}

// NewRunOmission is NewRun with an omission-fault policy on the initial
// configuration, for replaying schedules that contain Omit events while
// keeping the policy-aware Key/Fingerprint accounting (replay byte-identity
// checks need it). A zero policy is exactly NewRun.
func NewRunOmission(proto Protocol, inputs []Bit, pol OmissionPolicy) (*Run, error) {
	if len(inputs) != proto.N() {
		return nil, fmt.Errorf("sim: protocol %s wants %d inputs, got %d", proto.Name(), proto.N(), len(inputs))
	}
	if pol.Enabled() && len(inputs) > maxOmissionProcs {
		return nil, fmt.Errorf("sim: omission policies support at most %d processors, got %d", maxOmissionProcs, len(inputs))
	}
	return &Run{Proto: proto, Configs: []*Config{NewConfigOmission(proto, inputs, pol)}}, nil
}

// Final returns the last configuration of the run.
func (r *Run) Final() *Config { return r.Configs[len(r.Configs)-1] }

// Initial returns the initial configuration of the run.
func (r *Run) Initial() *Config { return r.Configs[0] }

// Steps returns the number of events in the run.
func (r *Run) Steps() int { return len(r.Schedule) }

// FailureFree reports whether the run contains no crash-failure events.
// Omission faults are counted separately; see Omissions.
func (r *Run) FailureFree() bool {
	for _, e := range r.Schedule {
		if e.Type == Fail {
			return false
		}
	}
	return true
}

// Omissions returns the number of Omit events in the run.
func (r *Run) Omissions() int {
	n := 0
	for _, e := range r.Schedule {
		if e.Type == Omit {
			n++
		}
	}
	return n
}

// Nonfaulty reports whether processor p never occupies a failed state in the
// run.
func (r *Run) Nonfaulty(p ProcID) bool {
	return r.Final().States[p].Kind() != Failed
}

// DecisionOf returns the decision processor p made at any point during the
// run, scanning the configuration history so that decisions later hidden by
// amnesia or failure are still observed. This is the "ever decides" notion
// total consistency constrains.
func (r *Run) DecisionOf(p ProcID) (Decision, bool) {
	for _, c := range r.Configs {
		if d, ok := c.States[p].Decided(); ok {
			return d, true
		}
	}
	return NoDecision, false
}

// MessagesSent returns the number of non-notice messages sent in the run —
// the message complexity measure of the introduction.
func (r *Run) MessagesSent() int {
	n := 0
	for _, eff := range r.Effects {
		for _, m := range eff.Sent {
			if !m.Notice {
				n++
			}
		}
	}
	return n
}

// StepsOf returns the number of events processor p took in the run (its
// per-processor step count, the measure of Theorem 7's O(N²) bound).
func (r *Run) StepsOf(p ProcID) int {
	n := 0
	for _, e := range r.Schedule {
		if e.Proc == p {
			n++
		}
	}
	return n
}

// Extend applies further events to the run in place.
func (r *Run) Extend(sched Schedule) error {
	for _, e := range sched {
		if err := r.step(e); err != nil {
			return err
		}
	}
	return nil
}

// step applies one event, recording the successor and the effect.
func (r *Run) step(e Event) error {
	next, eff, err := Apply(r.Proto, r.Final(), e)
	if err != nil {
		return err
	}
	r.Schedule = append(r.Schedule, e)
	r.Configs = append(r.Configs, next)
	r.Effects = append(r.Effects, eff)
	return nil
}

// FailureAt schedules a failure injection: processor Proc fails immediately
// after the AfterStep-th event of the run (0 = before anything happens).
type FailureAt struct {
	Proc      ProcID `json:"proc"`
	AfterStep int    `json:"afterStep"`
}

// RunnerOptions configures the random fair scheduler.
type RunnerOptions struct {
	// Seed seeds the scheduler's PRNG; equal seeds give equal runs.
	Seed int64
	// MaxSteps bounds the run length as a safety net against
	// non-quiescing protocols. Zero means the default of 100_000.
	MaxSteps int
	// Failures injects fail-stop failures at fixed points in the run.
	Failures []FailureAt
	// Omission attaches an omission-fault policy to the run: within its
	// budget, Omit events are enumerated alongside deliveries and the
	// scheduler (or Choose) may pick them. The zero policy disables
	// omissions.
	Omission OmissionPolicy
	// Choose, if non-nil, replaces the PRNG's uniform event choice: it is
	// called with the current configuration and its enabled events (both
	// the scheduler's own: read, do not keep) and must return the index of
	// the event to apply. Returning an out-of-range index aborts the run
	// with ErrRunAborted (the partial run is still returned), which is how
	// chaos sweeps cut off runs on cancellation.
	Choose func(c *Config, enabled []Event) int
}

// ErrRunAborted reports that a Choose callback cut the run short; the
// partial run accompanies the error.
var ErrRunAborted = errors.New("sim: run aborted by scheduler callback")

// ErrStepBudget reports that a run hit MaxSteps without quiescing; the
// partial run accompanies the error.
var ErrStepBudget = errors.New("sim: run did not quiesce within the step budget")

// RandomRun executes the protocol on the given inputs under a fair random
// scheduler until the configuration is quiescent (or MaxSteps is hit),
// returning the complete run. Fairness holds with probability 1: every
// enabled event is chosen uniformly, so no buffered message is discriminated
// against forever.
//
// Failure injections whose AfterStep lies beyond quiescence (or beyond the
// cutoff) never fire; they are reported in the returned Run's Unfired field
// rather than silently dropped.
//
// RandomRun keeps the run's history — a configuration and an effect per
// event — for callers that read it (pattern extraction, experiments,
// replays). RandomWalk is the same scheduler for callers that do not.
func RandomRun(proto Protocol, inputs []Bit, opts RunnerOptions) (*Run, error) {
	if len(inputs) != proto.N() {
		return nil, fmt.Errorf("sim: protocol %s wants %d inputs, got %d", proto.Name(), proto.N(), len(inputs))
	}
	if opts.Omission.Enabled() && len(inputs) > maxOmissionProcs {
		return nil, fmt.Errorf("sim: omission policies support at most %d processors, got %d", maxOmissionProcs, len(inputs))
	}
	run := &Run{Proto: proto, Configs: []*Config{NewConfigOmission(proto, inputs, opts.Omission)}}
	var err error
	run.Unfired, err = schedule(proto, opts, run.Final, run.step)
	return run, err
}

// RandomWalk is RandomRun without the history: the scheduler steps c, which
// the caller built (NewConfigOmission: the policy in force is c's, not
// opts.Omission) and owns, in place, and after every event hands the event
// and c to observe. observe sees the same *Config every time — what it
// wants of a configuration it must read before returning. The schedule
// walked is appended to sched, so a caller that walks many runs can hand
// in one buffer, emptied, each time; it is returned with the unfired
// injections and RandomRun's errors.
//
// Unlike RandomRun's, the walked schedule ends with the event whose step
// failed, if one did. The scheduler offers only enabled events, so such a
// step broke the model's contract (self-send, multi-send, revoked
// decision), and a schedule that keeps it replays to the same error.
func RandomWalk(proto Protocol, c *Config, opts RunnerOptions, sched Schedule, observe func(Event, *Config)) (Schedule, []FailureAt, error) {
	unfired, err := schedule(proto, opts, func() *Config { return c }, func(e Event) error {
		sched = append(sched, e)
		if err := c.ApplyInPlace(proto, e); err != nil {
			return err
		}
		observe(e, c)
		return nil
	})
	return sched, unfired, err
}

// schedule is the scheduler of RandomRun and RandomWalk: failure injection,
// the choice among enabled events, the step budget and the account of
// injections that never fired. The two differ only in how a step is taken
// (step) and where the configuration it produced is found (current).
func schedule(proto Protocol, opts RunnerOptions, current func() *Config, step func(Event) error) (unfired []FailureAt, err error) {
	maxSteps := opts.MaxSteps
	if maxSteps < 0 {
		return nil, fmt.Errorf("sim: RunnerOptions.MaxSteps is negative (%d)", maxSteps)
	}
	for _, f := range opts.Failures {
		if f.Proc < 0 || int(f.Proc) >= proto.N() {
			return nil, fmt.Errorf("sim: failure injection %d:%d names processor %d, but %s has processors 0..%d",
				f.Proc, f.AfterStep, f.Proc, proto.Name(), proto.N()-1)
		}
		if f.AfterStep < 0 {
			return nil, fmt.Errorf("sim: failure injection %d:%d has a negative step", f.Proc, f.AfterStep)
		}
	}
	if maxSteps == 0 {
		maxSteps = 100_000
	}
	var rng *rand.Rand
	if opts.Choose == nil {
		rng = rand.New(rand.NewSource(opts.Seed))
	}

	injected := make([]bool, len(opts.Failures))
	// At any exit, the injections that never got their turn are reported.
	// An injection "handled" because its target had already failed counts
	// as fired: the intended failure is in the run.
	defer func() {
		for i, f := range opts.Failures {
			if !injected[i] {
				unfired = append(unfired, f)
			}
		}
	}()
	// injectFailures fires every failure scheduled at or before the given
	// count of normal (non-failure) events.
	injectFailures := func(normalSteps int) error {
		for i, f := range opts.Failures {
			if injected[i] || f.AfterStep > normalSteps {
				continue
			}
			injected[i] = true
			if current().KindAt(f.Proc) == Failed {
				continue
			}
			if err := step(Event{Proc: f.Proc, Type: Fail}); err != nil {
				return err
			}
		}
		return nil
	}

	var enabled []Event
	for n := 0; n < maxSteps; n++ {
		if err := injectFailures(n); err != nil {
			return nil, err
		}
		enabled = AppendEnabled(enabled[:0], current())
		if len(enabled) == 0 {
			return nil, nil
		}
		var idx int
		if opts.Choose != nil {
			idx = opts.Choose(current(), enabled)
			if idx < 0 || idx >= len(enabled) {
				return nil, ErrRunAborted
			}
		} else {
			idx = rng.Intn(len(enabled))
		}
		if err := step(enabled[idx]); err != nil {
			return nil, err
		}
	}
	if !current().Quiescent() {
		return nil, fmt.Errorf("%w: %s after %d steps", ErrStepBudget, proto.Name(), maxSteps)
	}
	return nil, nil
}
