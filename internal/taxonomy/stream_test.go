package taxonomy

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
)

// streamViolations replays a materialized run through a StreamChecker,
// configuration by configuration.
func streamViolations(p Problem, run *sim.Run, complete bool) []Violation {
	sc := NewStreamChecker(p, run.Initial())
	for i, e := range run.Schedule {
		sc.Observe(e, run.Configs[i+1])
	}
	return sc.Finish(complete)
}

func chainStuck(kind, what string, heard ...string) []Violation {
	var out []Violation
	for p, h := range heard {
		out = append(out, Violation{kind, fmt.Sprintf("nonfaulty p%d never %s (final state chain{p%d n3 in1 done heard%s conj1 dec:commit rm0})", p, what, p, h)})
	}
	return out
}

// interleave merges per-processor violation lists processor by processor,
// the order the termination check reports them in.
func interleave(a, b []Violation) []Violation {
	var out []Violation
	for i := range a {
		out = append(out, a[i], b[i])
	}
	return out
}

// TestStreamCheckerMatchesValidate pins what the validator reports — kinds, details and
// order, for the incomplete and the complete reading of each run — to the
// strings recorded at 1b5fe81, the last commit with a second, history-
// scanning implementation (CheckIC, CheckTC, CheckTermination,
// validateRule) that the streaming one was held against. Problem.Validate
// is now a StreamChecker fed the history, so both spellings are checked
// against the record, not against each other.
func TestStreamCheckerMatchesValidate(t *testing.T) {
	problem := func(term Termination, c Consistency) Problem {
		return Problem{Rule: UnanimityRule{}, Termination: term, Consistency: c}
	}
	chainST := chainStuck("ST", "became amnesic", "6", "0", "0")
	chainHT := chainStuck("HT", "halted", "6", "0", "0")
	anyway := []Violation{
		{"rule", "p0 decided commit on inputs [0 1] (failureSeen=false), forbidden by unanimity"},
		{"rule", "p1 decided commit on inputs [0 1] (failureSeen=false), forbidden by unanimity"},
	}
	splitRule := Violation{"rule", "p1 decided abort on inputs [1 1] (failureSeen=false), forbidden by unanimity"}
	splitTC := Violation{"TC", "p0 decided commit but p1 decided abort"}
	cases := []struct {
		name string
		p    Problem
		run  *sim.Run
		// safety is reported whether or not the run is complete; liveness
		// only when it is.
		safety, liveness []Violation
	}{
		{"clean-ackcommit", problem(WT, TC), completeRun(t, protocols.AckCommit{Procs: 4}, "1111"), nil, nil},
		{"halting-commit", problem(HT, TC), completeRun(t, protocols.HaltingCommit{Procs: 4}, "1101"), nil, nil},
		{"chain-satisfies-WT", problem(WT, TC), completeRun(t, protocols.Chain{Procs: 3}, "111"), nil, nil},
		{"chain-misses-ST", problem(ST, TC), completeRun(t, protocols.Chain{Procs: 3}, "111"), nil, chainST},
		{"chain-misses-HT", problem(HT, TC), completeRun(t, protocols.Chain{Procs: 3}, "111"), nil, interleave(chainST, chainHT)},
		{"amnesic-tree-ST", problem(ST, TC), completeRun(t, protocols.Tree{Procs: 3, ST: true}, "111"), nil, nil},
		{"crash-ackcommit", problem(WT, TC),
			completeRun(t, protocols.AckCommit{Procs: 5}, "11111", sim.FailureAt{Proc: 2, AfterStep: 3}), nil, nil},
		{"rule-violation", problem(WT, TC), mustRandomRun(t, commitAnywayProto{}, []sim.Bit{sim.Zero, sim.One}), anyway, nil},
		// Theorem 8: the failed coordinator committed, the survivor aborted.
		// TC counts the dead processor's decision; IC does not (p0 failed
		// before p1 decided).
		{"star-TC-violation", problem(WT, TC), starTCViolationRun(t), []Violation{splitTC}, nil},
		{"star-under-IC", problem(WT, IC), starTCViolationRun(t), nil, nil},
		{"split-decisions-TC", problem(WT, TC), splitDecisionRun(), []Violation{splitRule, splitTC}, nil},
		{"split-decisions-IC", problem(WT, IC), splitDecisionRun(),
			[]Violation{splitRule, {"IC", "configuration 0: p0 decided commit while p1 decided abort"}}, nil},
	}
	for _, tc := range cases {
		for _, complete := range []bool{false, true} {
			want := tc.safety
			if complete {
				want = append(append([]Violation(nil), tc.safety...), tc.liveness...)
			}
			for spelling, got := range map[string][]Violation{
				"Validate":      tc.p.Validate(tc.run, complete),
				"StreamChecker": streamViolations(tc.p, tc.run, complete),
			} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s (complete=%v) %s:\n got  %v\n want %v", tc.name, complete, spelling, got, want)
				}
			}
		}
	}
}

// TestStreamCheckerMatchesValidateRandom sweeps seeded random runs — with and without
// crashes — across protocols and problems, on executions nobody
// hand-picked, against testdata/validate_random.golden: Problem.Validate's
// output on the same runs at 1b5fe81.
func TestStreamCheckerMatchesValidateRandom(t *testing.T) {
	protos := []sim.Protocol{
		protocols.AckCommit{Procs: 4},
		protocols.Tree{Procs: 7},
		protocols.Star{Procs: 4},
		protocols.Chain{Procs: 3},
	}
	problems := []Problem{
		{Rule: UnanimityRule{}, Termination: WT, Consistency: TC},
		{Rule: UnanimityRule{}, Termination: ST, Consistency: TC},
		{Rule: UnanimityRule{}, Termination: HT, Consistency: IC},
	}
	var got strings.Builder
	for _, proto := range protos {
		inputs := make([]sim.Bit, proto.N())
		for i := range inputs {
			inputs[i] = sim.One
		}
		for seed := int64(1); seed <= 3; seed++ {
			for crash, failures := range [][]sim.FailureAt{nil, {{Proc: sim.ProcID(seed) % sim.ProcID(proto.N()), AfterStep: int(seed)}}} {
				run, err := sim.RandomRun(proto, inputs, sim.RunnerOptions{Seed: seed, Failures: failures})
				if err != nil {
					t.Fatalf("%s seed %d: %v", proto.Name(), seed, err)
				}
				for _, p := range problems {
					for _, complete := range []bool{false, true} {
						fmt.Fprintf(&got, "%s seed=%d crash=%d %s complete=%v steps=%d\n", proto.Name(), seed, crash, p.Name(), complete, run.Steps())
						for _, v := range p.Validate(run, complete) {
							fmt.Fprintf(&got, "\t%s: %s\n", v.Kind, v.Detail)
						}
					}
				}
			}
		}
	}
	want, err := os.ReadFile("testdata/validate_random.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from the golden:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden has %d lines, this build produced %d", len(wl), len(gl))
	}
}

func mustRandomRun(t *testing.T, proto sim.Protocol, inputs []sim.Bit) *sim.Run {
	t.Helper()
	run, err := sim.RandomRun(proto, inputs, sim.RunnerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// starTCViolationRun drives the star protocol into its Theorem 8
// counterexample: the coordinator commits, halts, and fails; the lone
// survivor aborts — a TC violation with failures in the middle of the
// schedule.
func starTCViolationRun(t *testing.T) *sim.Run {
	t.Helper()
	in, err := sim.InputsFromString("111")
	if err != nil {
		t.Fatal(err)
	}
	proto := protocols.Star{Procs: 3}
	run := &sim.Run{Proto: proto, Configs: []*sim.Config{sim.NewConfig(proto, in)}}
	if err := run.Extend(sim.Schedule{
		{Proc: 1, Type: sim.SendStepEvent},
		{Proc: 2, Type: sim.SendStepEvent},
		{Proc: 0, Type: sim.Deliver, Msg: sim.MsgID{From: 1, To: 0, Seq: 1}},
		{Proc: 0, Type: sim.Deliver, Msg: sim.MsgID{From: 2, To: 0, Seq: 1}},
		{Proc: 0, Type: sim.SendStepEvent},
		{Proc: 0, Type: sim.SendStepEvent},
		{Proc: 0, Type: sim.Fail},
		{Proc: 2, Type: sim.Fail},
		{Proc: 1, Type: sim.Deliver, Msg: sim.MsgID{From: 2, To: 1, Seq: 1}},
		{Proc: 1, Type: sim.SendStepEvent},
		{Proc: 1, Type: sim.Deliver, Msg: sim.MsgID{From: 0, To: 1, Seq: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	return run
}

// splitDecisionRun is a zero-event run of a bogus protocol whose two
// processors start decided on opposite values: the smallest run that
// violates IC (simultaneously), TC (ever), and the unanimity rule.
func splitDecisionRun() *sim.Run {
	proto := splitDecisionProto{}
	return &sim.Run{Proto: proto, Configs: []*sim.Config{sim.NewConfig(proto, []sim.Bit{sim.One, sim.One})}}
}

type splitDecisionProto struct{}

type splitDecisionState struct{ id sim.ProcID }

func (s splitDecisionState) Kind() sim.StateKind { return sim.Receiving }
func (s splitDecisionState) Decided() (sim.Decision, bool) {
	if s.id == 0 {
		return sim.Commit, true
	}
	return sim.Abort, true
}
func (s splitDecisionState) Amnesic() bool { return false }
func (s splitDecisionState) Key() string   { return "split{" + s.id.String() + "}" }

func (splitDecisionProto) Name() string { return "split-decision" }
func (splitDecisionProto) N() int       { return 2 }
func (splitDecisionProto) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	return splitDecisionState{id: p}
}
func (splitDecisionProto) Receive(p sim.ProcID, s sim.State, m sim.Message) sim.State { return s }
func (splitDecisionProto) SendStep(p sim.ProcID, s sim.State) (sim.State, []sim.Envelope) {
	return s, nil
}
