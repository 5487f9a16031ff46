package chaos

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// TraceVersion is the trace format version this package writes.
const TraceVersion = 1

// TraceMsg identifies a delivered message: the paper's triple (p, q, k).
type TraceMsg struct {
	From int `json:"from"`
	To   int `json:"to"`
	Seq  int `json:"seq"`
}

// TraceEvent is one schedule element in serialized form.
type TraceEvent struct {
	// Proc is the processor taking the step.
	Proc int `json:"proc"`
	// Type is "send", "deliver", "fail", or "omit".
	Type string `json:"type"`
	// Msg identifies the affected message for "deliver" and "omit" events.
	Msg *TraceMsg `json:"msg,omitempty"`
}

// Trace is a replayable counterexample: everything needed to re-execute a
// violating run byte-for-byte and re-assert its violation. Traces with a
// schedule replay deterministically by applying the schedule; panic traces
// (empty schedule, non-empty Panic) replay by re-running the seeded
// scheduler with the recorded injections.
type Trace struct {
	Version int `json:"version"`
	// Protocol is the canonical protocol name (proto.Name()).
	Protocol string `json:"protocol"`
	// ProtoArg is the CLI name that resolves the protocol (ProtocolByName);
	// set by cmd/ccchaos so cmd/cccheck -replay can rebuild it.
	ProtoArg string `json:"protoArg,omitempty"`
	N        int    `json:"n"`
	// Problem is the paper's T-C notation, e.g. "ST-IC".
	Problem string `json:"problem"`
	// Rule is the problem's decision rule as cclive's -rule spells it,
	// omitted for unanimity, so traces recorded before it existed read as
	// what they were.
	Rule string `json:"rule,omitempty"`
	// Inputs is the initial input vector, e.g. "101".
	Inputs string `json:"inputs"`
	// SweepSeed and RunSeed locate the run in its sweep; RunIndex is its
	// position.
	SweepSeed int64 `json:"sweepSeed"`
	RunSeed   int64 `json:"runSeed"`
	RunIndex  int   `json:"runIndex"`
	// MaxSteps is the per-run step budget the sweep used (needed to
	// re-execute panic traces faithfully).
	MaxSteps int `json:"maxSteps"`
	// Injections is the planned failure schedule.
	Injections []sim.FailureAt `json:"injections,omitempty"`
	// Adversary names the scheduling strategy, omitted for the uniform
	// default; OmissionBudget/MobileOmissions echo the omission policy.
	// Panic traces need all three to re-run the seeded scheduler
	// faithfully; schedule traces carry them as provenance. All are zero
	// for pre-omission sweeps, keeping those traces byte-identical.
	Adversary       string `json:"adversary,omitempty"`
	OmissionBudget  int    `json:"omissionBudget,omitempty"`
	MobileOmissions int    `json:"mobileOmissions,omitempty"`
	// Shrunk reports whether Schedule was minimized; OriginalSteps is the
	// pre-shrink length.
	Shrunk        bool `json:"shrunk"`
	OriginalSteps int  `json:"originalSteps"`
	// Schedule is the violating schedule (empty for panic traces).
	Schedule []TraceEvent `json:"schedule"`
	// Violations is what replaying the schedule must reproduce.
	Violations []taxonomy.Violation `json:"violations"`
	// Panic holds the recovered panic value for panic traces.
	Panic string `json:"panic,omitempty"`
}

// BuildTrace serializes one failure of a report into a replayable trace.
// maxSteps must be the sweep's effective per-run budget.
func BuildTrace(rep *Report, f *Failure, maxSteps int) *Trace {
	t := &Trace{
		Version:       TraceVersion,
		Protocol:      rep.Proto,
		N:             len(f.Inputs),
		Problem:       rep.Problem.Name(),
		Inputs:        sim.InputsString(f.Inputs),
		SweepSeed:     rep.Seed,
		RunSeed:       f.Seed,
		RunIndex:      f.RunIndex,
		MaxSteps:      maxSteps,
		Shrunk:        f.ShrinkCandidates > 0,
		OriginalSteps: f.OriginalSteps,
		Violations:    f.Violations,
		Injections:    f.Injections,
		Panic:         f.PanicValue,

		OmissionBudget:  rep.OmissionBudget,
		MobileOmissions: rep.MobileOmissions,
	}
	if rep.Adversary != AdversaryUniform {
		t.Adversary = rep.Adversary
	}
	if rule := ruleArg(rep.Problem.Rule); rule != unanimity {
		t.Rule = rule
	}
	for _, e := range f.Schedule {
		t.Schedule = append(t.Schedule, EncodeEvent(e))
	}
	return t
}

// WriteTrace writes one failure of a report, as BuildTrace serializes it,
// to dir (created if missing) under the name
// <prefix><protoArg>-<problem>-run<index>.json, and returns the path.
// protoArg is the name that resolves the protocol when the trace is
// replayed.
func WriteTrace(dir, prefix, protoArg string, rep *Report, f *Failure, maxSteps int) (string, error) {
	t := BuildTrace(rep, f, maxSteps)
	t.ProtoArg = protoArg
	data, err := t.Encode()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s%s-%s-run%05d.json", prefix, protoArg, t.Problem, t.RunIndex))
	return path, os.WriteFile(path, data, 0o644)
}

// unanimity is the -rule spelling of the rule a trace without one was
// judged under.
const unanimity = "unanimity"

// ruleArg spells a decision rule as cclive's -rule flag accepts it: the
// strong broadcast rule as "broadcast-P", any other by its name.
func ruleArg(r taxonomy.DecisionRule) string {
	if b, ok := r.(taxonomy.BroadcastRule); ok && !b.Weak {
		return fmt.Sprintf("broadcast-%d", b.General)
	}
	return r.Name()
}

// EncodeEvent converts a schedule element to its serialized form. It is the
// inverse of TraceEvent.DecodeEvent.
func EncodeEvent(e sim.Event) TraceEvent {
	switch e.Type {
	case sim.Deliver:
		return TraceEvent{Proc: int(e.Proc), Type: "deliver", Msg: &TraceMsg{
			From: int(e.Msg.From), To: int(e.Msg.To), Seq: e.Msg.Seq,
		}}
	case sim.Omit:
		return TraceEvent{Proc: int(e.Proc), Type: "omit", Msg: &TraceMsg{
			From: int(e.Msg.From), To: int(e.Msg.To), Seq: e.Msg.Seq,
		}}
	case sim.Fail:
		return TraceEvent{Proc: int(e.Proc), Type: "fail"}
	default:
		return TraceEvent{Proc: int(e.Proc), Type: "send"}
	}
}

// DecodeEvent converts a serialized event back to a schedule element.
func (te TraceEvent) DecodeEvent() (sim.Event, error) {
	switch te.Type {
	case "send":
		return sim.Event{Proc: sim.ProcID(te.Proc), Type: sim.SendStepEvent}, nil
	case "fail":
		return sim.Event{Proc: sim.ProcID(te.Proc), Type: sim.Fail}, nil
	case "deliver":
		if te.Msg == nil {
			return sim.Event{}, errors.New("chaos: deliver event without msg")
		}
		return sim.Event{Proc: sim.ProcID(te.Proc), Type: sim.Deliver, Msg: sim.MsgID{
			From: sim.ProcID(te.Msg.From), To: sim.ProcID(te.Msg.To), Seq: te.Msg.Seq,
		}}, nil
	case "omit":
		if te.Msg == nil {
			return sim.Event{}, errors.New("chaos: omit event without msg")
		}
		return sim.Event{Proc: sim.ProcID(te.Proc), Type: sim.Omit, Msg: sim.MsgID{
			From: sim.ProcID(te.Msg.From), To: sim.ProcID(te.Msg.To), Seq: te.Msg.Seq,
		}}, nil
	default:
		return sim.Event{}, fmt.Errorf("chaos: unknown event type %q", te.Type)
	}
}

// Encode renders the trace as canonical indented JSON. The encoding is a
// pure function of the trace contents, so equal sweeps produce byte-equal
// trace files.
func (t *Trace) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("chaos: encoding trace: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeTrace parses a serialized trace and checks its version.
func DecodeTrace(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("chaos: decoding trace: %w", err)
	}
	if t.Version != TraceVersion {
		return nil, fmt.Errorf("chaos: trace version %d, want %d", t.Version, TraceVersion)
	}
	return &t, nil
}

// ScheduleEvents decodes the trace's schedule.
func (t *Trace) ScheduleEvents() (sim.Schedule, error) {
	sched := make(sim.Schedule, 0, len(t.Schedule))
	for i, te := range t.Schedule {
		e, err := te.DecodeEvent()
		if err != nil {
			return nil, fmt.Errorf("chaos: schedule event %d: %w", i, err)
		}
		sched = append(sched, e)
	}
	return sched, nil
}

// ReplayResult is the outcome of re-executing a trace.
type ReplayResult struct {
	// Complete reports whether the replay ended quiescent.
	Complete bool
	// Violations is what the replay violated.
	Violations []taxonomy.Violation
	// PanicValue holds the re-recovered panic for panic traces.
	PanicValue string
	// Reproduced reports whether the replay matches the recorded
	// violations exactly (kind and detail, in order).
	Reproduced bool
}

// Replay re-executes a trace against the given protocol (which must match
// the trace's canonical name and size) and re-asserts its violation.
// Schedule traces are judged by Evaluate, event by event on one
// configuration stepped in place; panic traces re-run the seeded scheduler
// (sim.RandomWalk) with the recorded injections.
func Replay(t *Trace, proto sim.Protocol, problem taxonomy.Problem) (*ReplayResult, error) {
	if proto.Name() != t.Protocol {
		return nil, fmt.Errorf("chaos: trace is for %s, got protocol %s", t.Protocol, proto.Name())
	}
	if proto.N() != t.N {
		return nil, fmt.Errorf("chaos: trace wants N=%d, protocol has N=%d", t.N, proto.N())
	}
	if problem.Name() != t.Problem {
		return nil, fmt.Errorf("chaos: trace is for problem %s, got %s", t.Problem, problem.Name())
	}
	if want, got := cmp.Or(t.Rule, unanimity), ruleArg(problem.Rule); got != want {
		return nil, fmt.Errorf("chaos: trace is for rule %s, got %s", want, got)
	}
	inputs, err := sim.InputsFromString(t.Inputs)
	if err != nil {
		return nil, fmt.Errorf("chaos: trace inputs: %w", err)
	}
	if len(inputs) != t.N {
		return nil, fmt.Errorf("chaos: trace inputs %q do not match n=%d", t.Inputs, t.N)
	}

	if t.Panic != "" {
		return replayPanic(t, proto, inputs)
	}

	sched, err := t.ScheduleEvents()
	if err != nil {
		return nil, err
	}
	v := Evaluate(proto, inputs, sched, problem)
	if !v.Applicable {
		return nil, fmt.Errorf("chaos: trace schedule no longer applies to %s — protocol changed since recording", proto.Name())
	}
	res := &ReplayResult{Complete: v.Complete, Violations: v.Violations}
	res.Reproduced = slices.Equal(v.Violations, t.Violations)
	return res, nil
}

// replayPanic re-executes a panic trace through the seeded scheduler and
// checks the same panic value recurs.
func replayPanic(t *Trace, proto sim.Protocol, inputs []sim.Bit) (res *ReplayResult, err error) {
	res = &ReplayResult{}
	defer func() {
		if r := recover(); r != nil {
			res.PanicValue = fmt.Sprintf("%v", r)
			res.Violations = []taxonomy.Violation{{Kind: "panic", Detail: "protocol panicked: " + res.PanicValue}}
			res.Reproduced = slices.Equal(res.Violations, t.Violations)
			err = nil
		}
	}()
	rng := rand.New(rand.NewSource(t.RunSeed))
	adv, advErr := NewAdversary(t.Adversary)
	if advErr != nil {
		return nil, fmt.Errorf("chaos: trace adversary: %w", advErr)
	}
	c := sim.NewConfigOmission(proto, inputs, sim.OmissionPolicy{Budget: t.OmissionBudget, Mobile: t.MobileOmissions})
	_, _, runErr := sim.RandomWalk(proto, c, sim.RunnerOptions{
		MaxSteps: t.MaxSteps,
		Failures: t.Injections,
		Choose:   func(c *sim.Config, enabled []sim.Event) int { return adv.Choose(rng, proto, c, enabled) },
	}, nil, func(sim.Event, *sim.Config) {})
	if runErr != nil {
		// A schedule the scheduler refuses (an injection outside the
		// protocol) or a protocol error is not the recorded panic.
		return nil, fmt.Errorf("chaos: replaying panic trace: %w", runErr)
	}
	res.Complete = c.Quiescent()
	return res, fmt.Errorf("chaos: panic trace did not panic on replay — protocol changed since recording")
}
