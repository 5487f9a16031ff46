package runtime

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// round is one scripted answer of a Watcher's Status function.
type round struct {
	st    GroupStatus
	stale bool
	err   error
}

func quietAt(events int) round { return round{st: GroupStatus{Events: events}} }

func busyAt(events int, work int64) round {
	return round{st: GroupStatus{Events: events, Work: work}}
}

// watchScript runs Watch against a scripted status sequence — no nodes, no
// sockets — and returns what it returned, how many rounds it consumed and
// which processors it crashed. The script's last round repeats forever.
func watchScript(ctx context.Context, w Watcher, script []round) (fired []bool, rounds int, crashed []sim.ProcID, err error) {
	if w.Interval == 0 {
		w.Interval = time.Millisecond
	}
	if w.Deadline == 0 {
		w.Deadline = 10 * time.Second
	}
	w.Status = func() (GroupStatus, bool, error) {
		r := script[min(rounds, len(script)-1)]
		rounds++
		return r.st, !r.stale, r.err
	}
	w.Crash = func(p sim.ProcID) { crashed = append(crashed, p) }
	fired, err = Watch(ctx, w)
	return fired, rounds, crashed, err
}

// TestWatchQuiescenceStreak pins the quiescence rule on scripted statuses:
// the first quiet round fixes the event count, Stable further quiet rounds
// must repeat it, and a busy round, a stale round or a moved count starts
// the streak over. With Stable 0 the first fresh quiet round is the verdict.
func TestWatchQuiescenceStreak(t *testing.T) {
	stale := quietAt(5)
	stale.stale = true
	cases := []struct {
		name   string
		stable int
		script []round
		want   int // rounds consumed before quiescence is declared
	}{
		{"unbroken", 2, []round{quietAt(5)}, 3},
		{"busy round resets", 2, []round{quietAt(5), quietAt(5), busyAt(5, 1), quietAt(5)}, 6},
		{"stale round resets", 2, []round{quietAt(5), quietAt(5), stale, quietAt(5)}, 6},
		{"moved count resets", 2, []round{quietAt(5), quietAt(5), quietAt(6)}, 5},
		// A negative count is a release without a take: a bug, never quiet.
		{"only zero work is quiet", 2, []round{busyAt(5, 1), busyAt(5, 40), busyAt(5, -1), quietAt(5)}, 6},
		{"stable 0: first quiet round", 0, []round{quietAt(5)}, 1},
		{"stable 0: busy then quiet", 0, []round{busyAt(4, 2), busyAt(5, 1), quietAt(5)}, 3},
		{"stable 0: a stale zero proves nothing", 0, []round{stale, stale, quietAt(5)}, 3},
	}
	for _, tc := range cases {
		fired, rounds, crashed, err := watchScript(context.Background(), Watcher{Stable: tc.stable}, tc.script)
		if err != nil || rounds != tc.want || len(fired) != 0 || len(crashed) != 0 {
			t.Errorf("%s: err %v after %d rounds (fired %v, crashed %v), want quiescence after %d",
				tc.name, err, rounds, fired, crashed, tc.want)
		}
	}
}

// TestWatchWake: a wake runs a round without waiting for the tick (here an
// hour away), and a wake is a hint, not a verdict — the round it triggers
// still reads the status, so a stale wake over a busy status decides
// nothing and the next wake does.
func TestWatchWake(t *testing.T) {
	wake := make(chan struct{}, 1)
	wake <- struct{}{}
	script := []round{busyAt(5, 1), quietAt(6)}
	rounds := 0
	start := time.Now()
	fired, err := Watch(context.Background(), Watcher{
		Deadline: 10 * time.Second,
		Interval: time.Hour,
		Wake:     wake,
		Status: func() (GroupStatus, bool, error) {
			r := script[min(rounds, len(script)-1)]
			if rounds++; rounds == 1 {
				wake <- struct{}{} // the count reached zero again after this read
			}
			return r.st, true, nil
		},
	})
	if err != nil || len(fired) != 0 || rounds != 2 {
		t.Fatalf("err %v after %d rounds, want quiescence on the second wake", err, rounds)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("Watch took %s: the wakes did not run the rounds", took)
	}
}

// TestWatchInjections: an injection fires once when the event count reaches
// its step, the firing round cannot count toward quiescence, and an
// injection beyond the final event count comes back unfired.
func TestWatchInjections(t *testing.T) {
	w := Watcher{Stable: 2, Failures: []sim.FailureAt{{Proc: 1, AfterStep: 3}, {Proc: 2, AfterStep: 100}}}
	fired, rounds, crashed, err := watchScript(context.Background(), w, []round{busyAt(2, 1), quietAt(3)})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if !reflect.DeepEqual(fired, []bool{true, false}) || !reflect.DeepEqual(crashed, []sim.ProcID{1}) {
		t.Errorf("fired %v, crashed %v; want p1 fired exactly once and p2 unfired", fired, crashed)
	}
	// busy, firing round (quiet but void), then the three-round streak.
	if rounds != 5 {
		t.Errorf("quiescence after %d rounds, want 5: the firing round must reset the streak", rounds)
	}
	// With Stable 0 the firing round is still void: the verdict needs a
	// quiet round after the crash.
	w.Stable = 0
	if _, rounds, _, err := watchScript(context.Background(), w, []round{quietAt(3)}); err != nil || rounds != 2 {
		t.Errorf("stable 0: err %v after %d rounds, want 2 (the firing round, then the verdict)", err, rounds)
	}
	// Elapsed is exactly go signal to Watch's verdict, whenever Finish runs.
	res := &Result{}
	const startNs, endNs = int64(1_000_000), int64(4_500_000)
	Finish(res, startNs, endNs, w.Failures, fired, nil)
	if !res.Quiescent || !reflect.DeepEqual(res.Unfired, w.Failures[1:]) {
		t.Errorf("Finish: quiescent %v, unfired %v; want true and the step-100 injection", res.Quiescent, res.Unfired)
	}
	if res.Elapsed != time.Duration(endNs-startNs) {
		t.Errorf("Finish: elapsed %s, want exactly endNs-startNs = %s", res.Elapsed, time.Duration(endNs-startNs))
	}
}

// TestWatchErrors: each way a watch can fail ends it with that error.
func TestWatchErrors(t *testing.T) {
	boom := errors.New("control connection lost")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	violation := quietAt(5)
	violation.st.Err = "p0 emitted 2 messages"
	cases := []struct {
		name   string
		ctx    context.Context
		w      Watcher
		script []round
		is     error  // errors.Is target, or
		msg    string // the exact message
	}{
		{"host-reported violation", context.Background(), Watcher{}, []round{violation}, nil, "p0 emitted 2 messages"},
		{"status function error", context.Background(), Watcher{}, []round{{err: boom}}, boom, ""},
		// The deadline error carries the last status: with one counter it
		// is the only diagnostic of what is outstanding.
		{"deadline", context.Background(), Watcher{What: "test: tree(3)", Deadline: 50 * time.Millisecond}, []round{busyAt(7, 3)},
			nil, "test: tree(3) did not quiesce within 50ms (work 3, events 7)"},
		{"cancellation", cancelled, Watcher{}, []round{busyAt(0, 1)}, context.Canceled, ""},
	}
	for _, tc := range cases {
		tc.w.Stable = 2
		_, _, _, err := watchScript(tc.ctx, tc.w, tc.script)
		if err == nil || (tc.is != nil && !errors.Is(err, tc.is)) || (tc.is == nil && err.Error() != tc.msg) {
			t.Errorf("%s: Watch returned %v", tc.name, err)
		}
	}
}
