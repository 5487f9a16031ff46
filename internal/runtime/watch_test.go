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

func quietAt(events int) round {
	return round{st: GroupStatus{Events: events, Idle: true, BoxesEmpty: true}}
}

// watchScript runs Watch against a scripted status sequence — no nodes, no
// sockets — and returns what it returned, how many rounds it consumed and
// which processors it crashed. The script's last round repeats forever.
func watchScript(ctx context.Context, w Watcher, script []round) (fired []bool, rounds int, crashed []sim.ProcID, err error) {
	w.Interval = time.Millisecond
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
// the streak over.
func TestWatchQuiescenceStreak(t *testing.T) {
	busy := quietAt(5)
	busy.st.InFlight = 1
	stale := quietAt(5)
	stale.stale = true
	cases := []struct {
		name   string
		script []round
		want   int // rounds consumed before quiescence is declared
	}{
		{"unbroken", []round{quietAt(5)}, 3},
		{"busy round resets", []round{quietAt(5), quietAt(5), busy, quietAt(5)}, 6},
		{"stale round resets", []round{quietAt(5), quietAt(5), stale, quietAt(5)}, 6},
		{"moved count resets", []round{quietAt(5), quietAt(5), quietAt(6)}, 5},
		{"each part of the predicate", []round{
			{st: GroupStatus{Events: 5, BoxesEmpty: true}},
			{st: GroupStatus{Events: 5, Idle: true}},
			{st: GroupStatus{Events: 5, Idle: true, BoxesEmpty: true, Pending: 1}},
			{st: GroupStatus{Events: 5, Idle: true, BoxesEmpty: true, Undetected: 1}},
			quietAt(5),
		}, 7},
	}
	for _, tc := range cases {
		fired, rounds, crashed, err := watchScript(context.Background(), Watcher{Stable: 2}, tc.script)
		if err != nil || rounds != tc.want || len(fired) != 0 || len(crashed) != 0 {
			t.Errorf("%s: err %v after %d rounds (fired %v, crashed %v), want quiescence after %d",
				tc.name, err, rounds, fired, crashed, tc.want)
		}
	}
}

// TestWatchInjections: an injection fires once when the event count reaches
// its step, the firing round cannot count toward quiescence, and an
// injection beyond the final event count comes back unfired.
func TestWatchInjections(t *testing.T) {
	w := Watcher{Stable: 2, Failures: []sim.FailureAt{{Proc: 1, AfterStep: 3}, {Proc: 2, AfterStep: 100}}}
	busy := round{st: GroupStatus{Events: 2}}
	fired, rounds, crashed, err := watchScript(context.Background(), w, []round{busy, quietAt(3)})
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
	res := &Result{}
	Finish(res, time.Now().UnixNano(), w.Failures, fired, nil)
	if !res.Quiescent || !reflect.DeepEqual(res.Unfired, w.Failures[1:]) {
		t.Errorf("Finish: quiescent %v, unfired %v; want true and the step-100 injection", res.Quiescent, res.Unfired)
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
		{"deadline", context.Background(), Watcher{What: "test: tree(3)", Deadline: 5 * time.Millisecond}, []round{{}},
			nil, "test: tree(3) did not quiesce within 5ms"},
		{"cancellation", cancelled, Watcher{}, []round{{}}, context.Canceled, ""},
	}
	for _, tc := range cases {
		tc.w.Stable = 2
		_, _, _, err := watchScript(tc.ctx, tc.w, tc.script)
		if err == nil || (tc.is != nil && !errors.Is(err, tc.is)) || (tc.is == nil && err.Error() != tc.msg) {
			t.Errorf("%s: Watch returned %v", tc.name, err)
		}
	}
}
