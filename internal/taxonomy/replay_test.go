package taxonomy

import (
	"errors"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
)

// TestReplayStopsAtTheFirstInapplicableEvent: Replay steps the applied
// prefix, counts it, and stops without an error at an event that does not
// apply, leaving c at the configuration the prefix reaches; the verdict
// and c agree with the materialized run of the same events.
func TestReplayStopsAtTheFirstInapplicableEvent(t *testing.T) {
	full := starTCViolationRun(t)
	proto := full.Proto
	p := Problem{Rule: UnanimityRule{}, Termination: WT, Consistency: TC}
	const prefix = 4
	bogus := sim.Event{Proc: 0, Type: sim.Deliver, Msg: sim.MsgID{From: 1, To: 0, Seq: 99}}
	sched := append(append(append(sim.Schedule(nil), full.Schedule[:prefix]...), bogus), full.Schedule[prefix:]...)

	for _, tc := range []struct {
		name  string
		sched sim.Schedule
		want  int
	}{
		{"whole", full.Schedule, len(full.Schedule)},
		{"cut", sched, prefix},
		{"empty", nil, 0},
	} {
		c := full.Initial().Clone()
		sc := NewStreamChecker(p, c)
		applied, err := sc.Replay(proto, c, tc.sched)
		if applied != tc.want || err != nil {
			t.Errorf("%s: Replay = %d, %v; want %d, nil", tc.name, applied, err, tc.want)
			continue
		}
		if got, want := c.Key(), full.Configs[applied].Key(); got != want {
			t.Errorf("%s: c is left at\n %s\nwant the prefix's configuration\n %s", tc.name, got, want)
		}
		prefixRun := &sim.Run{Proto: proto, Schedule: full.Schedule[:applied], Configs: full.Configs[:applied+1]}
		if got, want := sc.Finish(c.Quiescent()), p.Validate(prefixRun, c.Quiescent()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Replay's verdict %v, the materialized prefix's %v", tc.name, got, want)
		}
	}
}

// TestReplayReportsTheModelError: a protocol that revokes its decision
// stops the replay with sim's error, after the step that decided.
func TestReplayReportsTheModelError(t *testing.T) {
	proto := revokeProto{}
	c := sim.NewConfig(proto, []sim.Bit{sim.One, sim.One})
	sc := NewStreamChecker(Problem{Rule: UnanimityRule{}, Termination: WT, Consistency: TC}, c)
	step := sim.Event{Proc: 0, Type: sim.SendStepEvent}
	applied, err := sc.Replay(proto, c, sim.Schedule{step, step, step})
	if applied != 1 || !errors.Is(err, sim.ErrRevokedDecision) {
		t.Fatalf("Replay = %d, %v; want 1 and %v", applied, err, sim.ErrRevokedDecision)
	}
	if d := sc.ledger[0]; d != sim.Commit {
		t.Errorf("ledger holds %v for p0; want the commit the applied step made", d)
	}
	if got := c.States[0]; got != (revokeState{step: 1}) {
		t.Errorf("c holds p0 in %s, want the state the applied step reached", got.Key())
	}
}

// TestAllocsReplayInapplicable: an event that does not apply costs no
// formatted error — most of a shrinker's candidates end that way.
func TestAllocsReplayInapplicable(t *testing.T) {
	var proto sim.Protocol = protocols.Star{Procs: 3} // boxed once, outside the measured closure
	c := sim.NewConfig(proto, []sim.Bit{sim.One, sim.One, sim.One})
	sc := NewStreamChecker(Problem{Rule: UnanimityRule{}, Termination: WT, Consistency: TC}, c)
	bad := sim.Schedule{{Proc: 0, Type: sim.Deliver, Msg: sim.MsgID{From: 1, To: 0, Seq: 99}}}
	var (
		applied int
		err     error
	)
	if allocs := testing.AllocsPerRun(100, func() { applied, err = sc.Replay(proto, c, bad) }); allocs != 0 {
		t.Errorf("Replay allocates %.1f times at an inapplicable first event, want 0", allocs)
	}
	if applied != 0 || err != nil {
		t.Errorf("Replay = %d, %v; want 0, nil", applied, err)
	}
}

// revokeProto decides commit on its first sending step and abort on its
// second: a protocol that breaks the model's irrevocability contract.
type revokeProto struct{}

type revokeState struct{ step int }

func (revokeState) Kind() sim.StateKind { return sim.Sending }
func (s revokeState) Decided() (sim.Decision, bool) {
	switch s.step {
	case 0:
		return sim.NoDecision, false
	case 1:
		return sim.Commit, true
	default:
		return sim.Abort, true
	}
}
func (revokeState) Amnesic() bool { return false }
func (s revokeState) Key() string { return "revoke{" + strconv.Itoa(s.step) + "}" }

func (revokeProto) Name() string { return "revoke" }
func (revokeProto) N() int       { return 2 }
func (revokeProto) Init(sim.ProcID, sim.Bit, int) sim.State {
	return revokeState{}
}
func (revokeProto) Receive(_ sim.ProcID, s sim.State, _ sim.Message) sim.State { return s }
func (revokeProto) SendStep(_ sim.ProcID, s sim.State) (sim.State, []sim.Envelope) {
	return revokeState{step: s.(revokeState).step + 1}, nil
}
