package runtime

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// Config tunes one live run on one host. The zero value gets sensible
// defaults: 1ms heartbeats, a 15ms detection timeout, a 10s deadline, and a
// faultless transport.
type Config struct {
	// Faults configures the unreliable link (drops, duplicates, latency)
	// and seeds every randomized choice in the transport.
	Faults FaultPlan
	// Failures injects fail-stop crashes: processor Proc is crashed once
	// the recorded schedule reaches AfterStep events (the same shape
	// chaos sweeps use, so chaos.PlanRuns drives live soaks directly).
	Failures []sim.FailureAt
	// Heartbeat is the interval between liveness beats.
	Heartbeat time.Duration
	// DetectTimeout is how long a processor must be silent before the
	// detector declares its (confirmed) crash and releases the failure
	// notices. It bounds detection latency from below.
	DetectTimeout time.Duration
	// Deadline bounds the whole run; a run that has not quiesced by then
	// fails with an error (a liveness bug or an unlucky machine).
	Deadline time.Duration
}

func (c Config) deadline() time.Duration {
	if c.Deadline <= 0 {
		return 10 * time.Second
	}
	return c.Deadline
}

// CrashReport is one injected crash and how long the detector took to
// declare it (crash to notice release; survivors learn shortly after,
// once the notices transit the lossy link).
type CrashReport struct {
	Proc      sim.ProcID
	Detection time.Duration
}

// Result is everything a live run produced: the total-order schedule for
// conformance replay, the live decisions to compare against it, and the
// failure-detection measurements.
type Result struct {
	// Proto is the protocol's canonical name.
	Proto string
	// Inputs is the initial input vector.
	Inputs []sim.Bit
	// Schedule is the recorded total order of events.
	Schedule sim.Schedule
	// Decisions is each processor's first live decision (NoDecision if
	// none was observed).
	Decisions []sim.Decision
	// Quiescent reports whether the run ended because nothing more could
	// happen (the model's termination-by-deadlock); false means the
	// deadline or context cut it off.
	Quiescent bool
	// Unfired lists injections whose AfterStep lay beyond quiescence.
	Unfired []sim.FailureAt
	// Crashes lists the fired injections with detection latencies.
	Crashes []CrashReport
	// FalseSuspicions counts heartbeat timeouts on live processors; the
	// detector never acts on them, but honesty requires counting them.
	FalseSuspicions int
	// LinkSuspicions counts keepalive link-down verdicts from the mesh
	// (always zero in a one-host run, which has none).
	LinkSuspicions int
	// Decided holds each processor's time-to-first-decision from run
	// start; zero for processors that never decided.
	Decided []time.Duration
	// Transport snapshots the transport's counters at the end of the run,
	// including the loss paths (encode failures, garbage frames) that were
	// once silent.
	Transport TransportStats
	// Recovery is the crash-to-recovery latency: from the first crash to
	// the last post-crash decision by a survivor. Zero when no survivor
	// decided after a crash.
	Recovery time.Duration
	// Elapsed is the wall-clock length of the run, from the go signal to
	// Watch's verdict; teardown, report collection and the merge are not
	// part of it.
	Elapsed time.Duration
	// Err is a run-level failure: deadline exceeded, context cancelled,
	// or a model-contract violation caught at the collector.
	Err error
}

// pollInterval is the in-process tick: every group's detector sweeps on it,
// and a one-host run's Watch looks for due injections on it. It is a floor,
// not a period — in an otherwise idle process the runtime's timers fire
// about a millisecond apart (EXPERIMENTS.md) — which is why quiescence is
// signalled by Group.Wake and not waited for on this tick.
const pollInterval = 200 * time.Microsecond

// Run executes the protocol live on the given inputs as the one-host case
// of a distributed run: a single Group owns every processor (no mesh), the
// same Watch a dist coordinator uses injects the crashes and detects
// quiescence, and the result is MergeGroups of that one share. The
// returned Result always carries whatever schedule was recorded, even on
// failure, so divergences and timeouts leave a replayable artifact. Errors
// from Run itself are setup errors; run-level failures land in Result.Err.
func Run(ctx context.Context, proto sim.Protocol, inputs []sim.Bit, cfg Config) (*Result, error) {
	n := proto.N()
	if n < 1 {
		return nil, fmt.Errorf("runtime: protocol %s has no processors", proto.Name())
	}
	if len(inputs) != n {
		return nil, fmt.Errorf("runtime: protocol %s wants %d inputs, got %d", proto.Name(), n, len(inputs))
	}
	for _, f := range cfg.Failures {
		if int(f.Proc) < 0 || int(f.Proc) >= n {
			return nil, fmt.Errorf("runtime: failure injection names out-of-range %s", f.Proc)
		}
	}
	g, err := StartGroup(GroupConfig{
		Proto:         proto,
		Inputs:        inputs,
		Owner:         make([]int, n), // host 0 owns everybody
		Faults:        cfg.Faults,
		Heartbeat:     cfg.Heartbeat,
		DetectTimeout: cfg.DetectTimeout,
	})
	if err != nil {
		return nil, err
	}
	return runGroup(ctx, g, cfg)
}

// runGroup is Run from the go signal on: start the one group, watch it to
// a verdict, tear it down and assemble the result.
func runGroup(ctx context.Context, g *Group, cfg Config) (*Result, error) {
	proto := g.cfg.Proto
	startNs := time.Now().UnixNano()
	g.Start()
	// No Confirm: one host's token count is one atomic word, so a single
	// read of zero is already a proof.
	fired, runErr := Watch(ctx, Watcher{
		What:     "runtime: " + proto.Name(),
		Deadline: cfg.deadline(),
		Interval: pollInterval,
		Wake:     g.Wake(),
		Failures: cfg.Failures,
		Status:   func() (GroupStatus, error) { return g.Status(), nil },
		Crash:    g.Crash,
	})
	endNs := time.Now().UnixNano()
	res, err := MergeGroups(proto.Name(), g.cfg.Inputs, g.cfg.Owner, []*GroupResult{g.Finish()}, startNs)
	if err != nil {
		return nil, err
	}
	Finish(res, startNs, endNs, cfg.Failures, fired, runErr)
	return res, nil
}

// Watcher configures one Watch: whose run it is, how long and how often to
// look, and how to see and to crash the processors — in process or across
// a control plane.
type Watcher struct {
	// What names the run in the deadline error.
	What string
	// Deadline bounds the watch; past it the run is declared not quiescent.
	Deadline time.Duration
	// Interval paces the rounds.
	Interval time.Duration
	// Wake, if set, triggers a round at once: the hosts signal it when
	// their work reaches zero.
	Wake <-chan struct{}
	// Failures is the injection schedule, fired against the global event
	// count.
	Failures []sim.FailureAt
	// Status returns the statuses of all hosts joined into one; an error
	// ends the watch.
	Status func() (GroupStatus, error)
	// Confirm, if set, is asked whenever a round finds the joined status
	// quiet and fires nothing, and only its yes is quiescence. A joined
	// status sums reads taken at different instants — a message can leave
	// one host's read before it enters the next — so Confirm is the second,
	// causally later wave: every host looks again, and the hosts' answers
	// must show each one idle since the status it had reported
	// (GroupStatus.IdleSince). Nil suits a Status that is one atomic read.
	// The context expires with the watch.
	Confirm func(ctx context.Context) (bool, error)
	// Crash injects a fail-stop failure on p (routed to p's host). A target
	// that had already crashed still counts as fired: the intended failure
	// is in the run.
	Crash func(p sim.ProcID)
}

// Watch drives the failure injections of a started run and waits for
// global quiescence: a round whose aggregate status is GroupStatus.Quiet,
// that fires no injection, and that Confirm (if any) upholds. fired marks
// the injections that came due, whatever ended the watch; err is nil on
// quiescence and otherwise the context's error, the deadline, a Status or
// Confirm error, or a model-contract violation a host reported.
func Watch(ctx context.Context, w Watcher) (fired []bool, err error) {
	caller := ctx
	ctx, cancel := context.WithTimeout(caller, w.Deadline)
	defer cancel()
	tick := time.NewTicker(w.Interval)
	defer tick.Stop()

	fired = make([]bool, len(w.Failures))
	var st GroupStatus
	for {
		select {
		case <-ctx.Done():
			if err := caller.Err(); err != nil {
				return fired, err
			}
			return fired, fmt.Errorf("%s did not quiesce within %s (work %d, events %d)", w.What, w.Deadline, st.Work, st.Events)
		case <-tick.C:
		case <-w.Wake:
		}
		if st, err = w.Status(); err != nil {
			return fired, err
		}
		if st.Err != "" {
			return fired, errors.New(st.Err)
		}
		quiet := st.Quiet()
		for i, f := range w.Failures {
			if !fired[i] && f.AfterStep <= st.Events {
				fired[i] = true
				w.Crash(f.Proc)
				quiet = false
			}
		}
		if !quiet {
			continue
		}
		if w.Confirm == nil {
			return fired, nil
		}
		switch ok, err := w.Confirm(ctx); {
		case ok:
			return fired, nil
		case err != nil && ctx.Err() == nil:
			return fired, err
		}
	}
}

// Finish stamps the run-level verdict of Watch on a merged result: whether
// the run quiesced, how long it took from the go signal to the moment Watch
// returned (endNs), what cut it short, and which injections never came due.
func Finish(res *Result, startNs, endNs int64, failures []sim.FailureAt, fired []bool, runErr error) {
	res.Quiescent = runErr == nil
	res.Elapsed = time.Duration(endNs - startNs)
	res.Err = runErr
	for i, f := range failures {
		if !fired[i] {
			res.Unfired = append(res.Unfired, f)
		}
	}
}
