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
	st  GroupStatus
	err error
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
	w.Status = func() (GroupStatus, error) {
		r := script[min(rounds, len(script)-1)]
		rounds++
		return r.st, r.err
	}
	w.Crash = func(p sim.ProcID) { crashed = append(crashed, p) }
	fired, err = Watch(ctx, w)
	return fired, rounds, crashed, err
}

// TestWatchOneRead pins the rule for a status that is one atomic read (no
// Confirm, as runtime.Run watches its one group): the first quiet round is
// the verdict, and only zero work is quiet.
func TestWatchOneRead(t *testing.T) {
	cases := []struct {
		name   string
		script []round
		want   int // rounds consumed before quiescence is declared
	}{
		{"first quiet round", []round{quietAt(5)}, 1},
		{"busy then quiet", []round{busyAt(4, 2), busyAt(5, 1), quietAt(5)}, 3},
		// A negative count is a release without a take: a bug, never quiet.
		{"only zero work is quiet", []round{busyAt(5, 1), busyAt(5, 40), busyAt(5, -1), quietAt(5)}, 4},
	}
	for _, tc := range cases {
		fired, rounds, crashed, err := watchScript(context.Background(), Watcher{}, tc.script)
		if err != nil || rounds != tc.want || len(fired) != 0 || len(crashed) != 0 {
			t.Errorf("%s: err %v after %d rounds (fired %v, crashed %v), want quiescence after %d",
				tc.name, err, rounds, fired, crashed, tc.want)
		}
	}
}

// waveHosts is a scripted set of hosts under one Watch, as a dist
// coordinator sees them: each host is a real token counter, the script takes
// and releases its tokens and says when it pushes a status, the joined
// status sums the latest pushes, and Confirm is the probe wave — every host
// answers with a fresh status, held against the one it had pushed. No nodes,
// no sockets, no clocks: each round is run by a wake the one before it left.
type waveHosts struct {
	hosts    []*tokens
	events   []int
	pushed   []GroupStatus // the coordinator's view: each host's latest push or answer
	reported []GroupStatus // what the round's joined status was summed from
	answered []bool
}

// op is one scripted step on host h.
type op struct {
	kind byte // 't'ake, 'r'elease, 'e'vent recorded, 'p'ush a status, 'a'nswer the probe
	h    int
}

func (c *waveHosts) fresh(h int) GroupStatus {
	st := GroupStatus{Events: c.events[h]}
	st.Epoch, st.Work = c.hosts[h].read()
	return st
}

func (c *waveHosts) run(ops []op) {
	for _, o := range ops {
		switch o.kind {
		case 't':
			c.hosts[o.h].take(1)
		case 'r':
			c.hosts[o.h].release()
		case 'e':
			c.events[o.h]++
		case 'p':
			c.pushed[o.h] = c.fresh(o.h)
		case 'a':
			c.pushed[o.h], c.answered[o.h] = c.fresh(o.h), true
		}
	}
}

// waveRound is what the hosts do before one Watch round joins their pushed
// statuses, and between that and their answers to the round's probe: an 'a'
// op is the instant a host answers, and a host the script does not mention
// answers last.
type waveRound struct{ before, between []op }

// watchWave runs Watch over three scripted hosts, each starting with one
// token (its nodes running) and its go-signal status pushed. confirm stands
// in for the probe wave's judgement of one host, so a teeth check can weaken
// it. It returns Watch's results, the rounds and probe waves spent, and the
// tokens still held when Watch returned.
func watchWave(t *testing.T, failures []sim.FailureAt, script []waveRound, confirm func(answer, reported GroupStatus) bool) (fired []bool, rounds, waves int, held int64, err error) {
	t.Helper()
	const hosts = 3
	c := &waveHosts{events: make([]int, hosts), pushed: make([]GroupStatus, hosts), reported: make([]GroupStatus, hosts), answered: make([]bool, hosts)}
	for h := 0; h < hosts; h++ {
		c.hosts = append(c.hosts, newTokens())
		c.hosts[h].take(1)
		c.pushed[h] = c.fresh(h)
	}
	wake := make(chan struct{}, 1)
	wake <- struct{}{}
	step := func() waveRound {
		if rounds > len(script) {
			t.Fatalf("round %d: the script has only %d", rounds, len(script))
		}
		return script[rounds-1]
	}
	fired, err = Watch(context.Background(), Watcher{
		Deadline: 10 * time.Second,
		Interval: time.Hour,
		Wake:     wake,
		Failures: failures,
		Status: func() (GroupStatus, error) {
			rounds++
			wake <- struct{}{} // the next round follows at once
			c.run(step().before)
			var all GroupStatus
			for h, st := range c.pushed {
				c.reported[h] = st
				all = all.Join(st)
			}
			return all, nil
		},
		Confirm: func(context.Context) (bool, error) {
			waves++
			clear(c.answered)
			c.run(step().between)
			ok := true
			for h := range c.hosts {
				if !c.answered[h] {
					c.run([]op{{'a', h}})
				}
				ok = ok && confirm(c.pushed[h], c.reported[h])
			}
			return ok, nil
		},
		// As Group.Crash: the crash holds a token until it is detected.
		Crash: func(p sim.ProcID) { c.hosts[p].take(1) },
	})
	for _, tk := range c.hosts {
		_, n := tk.read()
		held += n
	}
	return fired, rounds, waves, held, err
}

// TestWatchWave pins the two-wave rule on scripted hosts: a joined zero is
// only a candidate, and quiescence is every host answering the probe idle at
// the epoch it had reported. Each case says how many rounds and waves the
// verdict takes, and no verdict may come while a token is held.
func TestWatchWave(t *testing.T) {
	const A, B, C = 0, 1, 2
	idle := func(hs ...int) (ops []op) { // each host's work reaches zero and it pushes
		for _, h := range hs {
			ops = append(ops, op{'r', h}, op{'p', h})
		}
		return ops
	}
	// The classic race. B and C go idle and say so; then A's last message
	// reaches B (B holds its token, and has nothing new to say until it is
	// idle again) and A goes idle: every pushed status reads zero. While the
	// probe is out, C answers, then B applies the message, sends to C and is
	// idle again before it answers: every answer reads zero too, and only
	// B's moved epoch shows that the zeros were not simultaneous.
	race := []waveRound{
		{
			before:  append(idle(B, C), op{'t', B}, op{'r', A}, op{'p', A}),
			between: []op{{'a', C}, {'e', B}, {'t', C}, {'r', B}, {'a', B}},
		},
		{before: append([]op{{'p', B}, {'e', C}}, idle(C)...)},
	}
	cases := []struct {
		name     string
		failures []sim.FailureAt
		script   []waveRound
		rounds   int
		waves    int
		fired    []bool
	}{
		{"idle once: one wave", nil, []waveRound{{before: idle(A, B, C)}}, 1, 1, []bool{}},
		{"no wave while a pushed status is busy", nil, []waveRound{{before: idle(A, B)}, {}, {before: idle(C)}}, 3, 1, []bool{}},
		{"race: zeros at different instants", nil, race, 2, 2, []bool{}},
		// B was busy between its report and its answer and says so only by
		// its epoch; its answer is its new report, which the next wave holds.
		{"epoch moved between report and answer", nil, []waveRound{
			{before: idle(A, B, C), between: []op{{'t', B}, {'e', B}, {'r', B}}},
			{},
		}, 2, 2, []bool{}},
		// A node woken by a stale notify retakes its token, finds nothing
		// and lets go: nothing happened, and it costs one wave.
		{"stale-notify blip", nil, []waveRound{
			{before: append(idle(A, B, C), op{'t', A}, op{'r', A})},
			{},
		}, 2, 2, []bool{}},
		// The crash comes due on the idle statuses of round 1, which is void.
		// Round 2 still sums those statuses — the crashed host has nothing
		// to push — and its wave finds the crash's token. Detection hands the
		// notices over (one event) and lets go in round 3.
		{"crash between the waves", []sim.FailureAt{{Proc: B, AfterStep: 2}}, []waveRound{
			{before: append([]op{{'e', A}, {'e', C}}, idle(A, B, C)...)},
			{},
			{before: append([]op{{'e', B}}, idle(B)...)},
		}, 3, 2, []bool{true}},
	}
	for _, tc := range cases {
		fired, rounds, waves, held, err := watchWave(t, tc.failures, tc.script, GroupStatus.IdleSince)
		if err != nil || held != 0 || rounds != tc.rounds || waves != tc.waves || !reflect.DeepEqual(fired, tc.fired) {
			t.Errorf("%s: err %v after %d rounds and %d waves with %d tokens held, fired %v; want quiescence after %d rounds and %d waves, fired %v",
				tc.name, err, rounds, waves, held, fired, tc.rounds, tc.waves, tc.fired)
		}
	}

	// Teeth: a detector that trusts the joined zero, or two joined zeros
	// without the epochs, calls the race quiescent while C holds a token.
	weak := []struct {
		name    string
		confirm func(answer, reported GroupStatus) bool
	}{
		{"a single joined zero", func(_, reported GroupStatus) bool { return reported.Quiet() }},
		{"zeros without epochs", func(answer, reported GroupStatus) bool { return answer.Quiet() && reported.Quiet() }},
	}
	for _, tc := range weak {
		if _, rounds, _, held, err := watchWave(t, nil, race, tc.confirm); err != nil || rounds != 1 || held == 0 {
			t.Errorf("%s: err %v after %d rounds with %d tokens held; the race case should have fooled it in round 1", tc.name, err, rounds, held)
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
		Status: func() (GroupStatus, error) {
			r := script[min(rounds, len(script)-1)]
			if rounds++; rounds == 1 {
				wake <- struct{}{} // the count reached zero again after this read
			}
			return r.st, nil
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
	w := Watcher{Failures: []sim.FailureAt{{Proc: 1, AfterStep: 3}, {Proc: 2, AfterStep: 100}}}
	fired, rounds, crashed, err := watchScript(context.Background(), w, []round{busyAt(2, 1), quietAt(3)})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if !reflect.DeepEqual(fired, []bool{true, false}) || !reflect.DeepEqual(crashed, []sim.ProcID{1}) {
		t.Errorf("fired %v, crashed %v; want p1 fired exactly once and p2 unfired", fired, crashed)
	}
	// busy, firing round (quiet but void), then the verdict: it needs a
	// quiet round after the crash.
	if rounds != 3 {
		t.Errorf("quiescence after %d rounds, want 3: the firing round must be void", rounds)
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
		{"confirm error", context.Background(), Watcher{Confirm: func(context.Context) (bool, error) { return false, boom }}, []round{quietAt(5)}, boom, ""},
		// A wave cut short by the deadline is the deadline's error, not its own.
		{"deadline during a wave", context.Background(), Watcher{What: "test: wave", Deadline: 50 * time.Millisecond,
			Confirm: func(ctx context.Context) (bool, error) { <-ctx.Done(); return false, ctx.Err() }}, []round{quietAt(7)},
			nil, "test: wave did not quiesce within 50ms (work 0, events 7)"},
	}
	for _, tc := range cases {
		_, _, _, err := watchScript(tc.ctx, tc.w, tc.script)
		if err == nil || (tc.is != nil && !errors.Is(err, tc.is)) || (tc.is == nil && err.Error() != tc.msg) {
			t.Errorf("%s: Watch returned %v", tc.name, err)
		}
	}
}
