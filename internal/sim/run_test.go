package sim

import (
	"errors"
	"strings"
	"testing"
)

// TestUnfiredInjectionsReported pins the fix for silently dropped failure
// plans: an injection whose AfterStep lies beyond quiescence must come back
// in Run.Unfired instead of vanishing.
func TestUnfiredInjectionsReported(t *testing.T) {
	late := FailureAt{Proc: 0, AfterStep: 1000}
	run, err := RandomRun(pingProto{}, []Bit{One, One}, RunnerOptions{
		Seed:     1,
		Failures: []FailureAt{{Proc: 1, AfterStep: 0}, late},
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.FailureFree() {
		t.Error("the AfterStep=0 injection should have fired")
	}
	if len(run.Unfired) != 1 || run.Unfired[0] != late {
		t.Fatalf("Unfired = %v, want [%v]", run.Unfired, late)
	}
}

func TestAllInjectionsFiredMeansNoUnfired(t *testing.T) {
	run, err := RandomRun(pingProto{}, []Bit{One, One}, RunnerOptions{
		Seed:     1,
		Failures: []FailureAt{{Proc: 1, AfterStep: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Unfired) != 0 {
		t.Fatalf("Unfired = %v, want none", run.Unfired)
	}
}

func TestChooseCallbackDrivesScheduling(t *testing.T) {
	calls := 0
	run, err := RandomRun(pingProto{}, []Bit{One, One}, RunnerOptions{
		Choose: func(c *Config, enabled []Event) int {
			calls++
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("Choose was never consulted")
	}
	if !run.Final().Quiescent() {
		t.Error("run should quiesce under the first-enabled policy")
	}
}

func TestChooseOutOfRangeAbortsRun(t *testing.T) {
	run, err := RandomRun(pingProto{}, []Bit{One, One}, RunnerOptions{
		Choose: func(c *Config, enabled []Event) int { return -1 },
	})
	if !errors.Is(err, ErrRunAborted) {
		t.Fatalf("err = %v, want ErrRunAborted", err)
	}
	if run == nil {
		t.Fatal("aborted run must still return the partial run")
	}
	if run.Steps() != 0 {
		t.Fatalf("aborted at first choice but run has %d steps", run.Steps())
	}
}

// TestBadInjectionIsRefused: an injection naming a processor outside
// [0, N) used to index the configuration's states unchecked and panic at
// its step, and a negative step fired before the first event. Both are
// errors before any step, from RandomRun and RandomWalk alike.
func TestBadInjectionIsRefused(t *testing.T) {
	for _, tc := range []struct {
		f    FailureAt
		want string
	}{
		{FailureAt{Proc: 9, AfterStep: 1}, "names processor 9"},
		{FailureAt{Proc: 2, AfterStep: 0}, "names processor 2"},
		{FailureAt{Proc: -1, AfterStep: 0}, "names processor -1"},
		{FailureAt{Proc: 1, AfterStep: -3}, "negative step"},
	} {
		opts := RunnerOptions{Seed: 1, Failures: []FailureAt{{Proc: 0, AfterStep: 1}, tc.f}}
		run, err := RandomRun(pingProto{}, []Bit{One, One}, opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) || run.Steps() != 0 {
			t.Errorf("RandomRun with %v: %d steps, %v, want none and an error containing %q", tc.f, run.Steps(), err, tc.want)
		}
		c := NewConfig(pingProto{}, []Bit{One, One})
		sched, _, err := RandomWalk(pingProto{}, c, opts, func(Event, *Config) {})
		if err == nil || !strings.Contains(err.Error(), tc.want) || len(sched) != 0 {
			t.Errorf("RandomWalk with %v: %d events, %v, want none and an error containing %q", tc.f, len(sched), err, tc.want)
		}
	}
}

// TestNegativeMaxStepsIsRefused: zero means the default budget; a negative
// budget used to mean "take no step and call the run unresolved".
func TestNegativeMaxStepsIsRefused(t *testing.T) {
	opts := RunnerOptions{Seed: 1, MaxSteps: -5}
	if _, err := RandomRun(pingProto{}, []Bit{One, One}, opts); err == nil || !strings.Contains(err.Error(), "RunnerOptions.MaxSteps") {
		t.Errorf("RandomRun: %v, want an error naming RunnerOptions.MaxSteps", err)
	}
	c := NewConfig(pingProto{}, []Bit{One, One})
	sched, _, err := RandomWalk(pingProto{}, c, opts, func(Event, *Config) {})
	if err == nil || !strings.Contains(err.Error(), "RunnerOptions.MaxSteps") || len(sched) != 0 {
		t.Errorf("RandomWalk: %d events, %v, want none and an error naming RunnerOptions.MaxSteps", len(sched), err)
	}
}
