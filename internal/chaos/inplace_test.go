package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	consensus "repro"
	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// TestWalkMatchesRun is the arbiter of the sweeper's history-free path: for
// every library protocol, adversary and omission policy, over seeded crash
// plans, the walk that steps one configuration in place under a streaming
// validator and the run that clones a history for Problem.Validate take
// the same schedule, leave the same injections unfired, end in the same
// configuration, count the same omissions and report the same violations
// in the same order.
func TestWalkMatchesRun(t *testing.T) {
	problems := []taxonomy.Problem{
		{Rule: taxonomy.UnanimityRule{}, Termination: taxonomy.ST, Consistency: taxonomy.IC},
		{Rule: taxonomy.UnanimityRule{}, Termination: taxonomy.HT, Consistency: taxonomy.TC},
	}
	policies := []sim.OmissionPolicy{{}, {Budget: 2, Mobile: 1}}
	const seeds = 50
	violated, omitted, crashed, unfiredSeen := 0, 0, 0, 0
	for _, name := range consensus.ProtocolNames() {
		proto, err := consensus.ProtocolByName(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, advName := range []string{chaos.AdversaryUniform, chaos.AdversaryDelay, chaos.AdversaryAdaptive} {
			for _, pol := range policies {
				plans := chaos.PlanRuns(611, seeds, proto.N(), proto.N()-1, nil)
				for i, pl := range plans {
					problem := problems[i%len(problems)]
					id := fmt.Sprintf("%s/%s/%s/plan %d", name, advName, pol, i)
					// Each side gets its own adversary and PRNG, seeded alike.
					options := func() sim.RunnerOptions {
						adv, err := chaos.NewAdversary(advName)
						if err != nil {
							t.Fatal(err)
						}
						rng := rand.New(rand.NewSource(pl.Seed))
						return sim.RunnerOptions{
							MaxSteps: 2000, Failures: pl.Failures, Omission: pol,
							Choose: func(c *sim.Config, enabled []sim.Event) int { return adv.Choose(rng, proto, c, enabled) },
						}
					}

					run, runErr := sim.RandomRun(proto, pl.Inputs, options())

					c := sim.NewConfigOmission(proto, pl.Inputs, pol)
					checker := taxonomy.NewStreamChecker(problem, c)
					omissions := 0
					sched, unfired, walkErr := sim.RandomWalk(proto, c, options(), nil, func(e sim.Event, c *sim.Config) {
						if e.Type == sim.Omit {
							omissions++
						}
						checker.Observe(e, c)
					})

					if fmt.Sprint(runErr) != fmt.Sprint(walkErr) {
						t.Fatalf("%s: the run ended with %v, the walk with %v", id, runErr, walkErr)
					}
					if !reflect.DeepEqual(run.Schedule, sched) {
						t.Fatalf("%s: schedules differ:\n run  %v\n walk %v", id, run.Schedule, sched)
					}
					if !reflect.DeepEqual(run.Unfired, unfired) {
						t.Fatalf("%s: unfired injections differ: run %v, walk %v", id, run.Unfired, unfired)
					}
					if run.Final().Key() != c.Key() {
						t.Fatalf("%s: final configurations differ:\n run  %s\n walk %s", id, run.Final().Key(), c.Key())
					}
					if run.Omissions() != omissions {
						t.Fatalf("%s: the run has %d omissions, the walk counted %d", id, run.Omissions(), omissions)
					}
					complete := runErr == nil
					want, got := problem.Validate(run, complete), checker.Finish(complete)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s: violations differ:\n run  %v\n walk %v", id, want, got)
					}
					if len(got) > 0 {
						violated++
					}
					omitted += omissions
					unfiredSeen += len(unfired)
					if !run.FailureFree() {
						crashed++
					}
				}
			}
		}
	}
	// The comparison must have had something to compare.
	if violated < 100 || omitted < 1000 || crashed < 1000 || unfiredSeen < 1000 {
		t.Errorf("thin coverage: %d violating runs, %d omissions, %d runs with crashes, %d unfired injections",
			violated, omitted, crashed, unfiredSeen)
	}
}

// TestWalkHandsOutOneConfig documents the aliasing the walk's speed rests
// on: the observer is handed the same *sim.Config at every step, so one that
// keeps the pointer keeps nothing — every "snapshot" reads as the final
// configuration. An observer that wants a past configuration must Clone it
// (or be RandomRun).
func TestWalkHandsOutOneConfig(t *testing.T) {
	proto := consensus.Tree(7)
	inputs := []sim.Bit{1, 1, 1, 1, 1, 1, 1}
	c := sim.NewConfig(proto, inputs)
	initial := c.Key()
	var kept []*sim.Config
	var keys []string
	sched, _, err := sim.RandomWalk(proto, c, sim.RunnerOptions{Seed: 3}, nil, func(_ sim.Event, c *sim.Config) {
		kept = append(kept, c)
		keys = append(keys, c.Key())
	})
	if err != nil || len(sched) < 10 || len(kept) != len(sched) {
		t.Fatalf("walk: %d events, %d observed, %v", len(sched), len(kept), err)
	}
	distinct := map[string]bool{initial: true}
	for i, k := range kept {
		if k != c {
			t.Fatalf("step %d handed out a different *Config; the walk owns exactly one", i)
		}
		if k.Key() != c.Key() {
			t.Fatalf("step %d: a retained pointer kept its own history", i)
		}
		distinct[keys[i]] = true
	}
	if len(distinct) != len(sched)+1 {
		t.Fatalf("%d events visited %d distinct configurations; the keys read at each step should all differ", len(sched), len(distinct))
	}
	if c.Key() == initial {
		t.Fatal("the walk did not step the caller's configuration")
	}
}

// TestRunConfigsStayUnaliased is the other half: the history RandomRun
// keeps is a history. Stepping any one of its configurations in place —
// a crash writes the states, every other processor's buffer and a row of
// the channel counters — changes no other.
func TestRunConfigsStayUnaliased(t *testing.T) {
	proto := consensus.AckCommit(4)
	run, err := sim.RandomRun(proto, []sim.Bit{1, 1, 1, 1}, sim.RunnerOptions{
		Seed: 5, Failures: []sim.FailureAt{{Proc: 2, AfterStep: 4}}, Omission: sim.OmissionPolicy{Budget: 2},
	})
	if err != nil || len(run.Configs) < 20 {
		t.Fatalf("run: %d configurations, %v", len(run.Configs), err)
	}
	keys := make([]string, len(run.Configs))
	for i, c := range run.Configs {
		keys[i] = c.Key()
	}
	for i, c := range run.Configs {
		victim := sim.ProcID(-1)
		for p := 0; p < c.N() && victim < 0; p++ {
			if !c.Faulty(sim.ProcID(p)) {
				victim = sim.ProcID(p)
			}
		}
		if err := c.ApplyInPlace(proto, sim.Event{Proc: victim, Type: sim.Fail}); err != nil {
			t.Fatal(err)
		}
		if c.Key() == keys[i] {
			t.Fatalf("crashing %s in Configs[%d] changed nothing", victim, i)
		}
		keys[i] = c.Key()
		for j, other := range run.Configs {
			if other.Key() != keys[j] {
				t.Fatalf("stepping Configs[%d] in place changed Configs[%d]", i, j)
			}
		}
	}
}

// TestNegativeOptionsAreRefused: a negative count is not "use the default".
func TestNegativeOptionsAreRefused(t *testing.T) {
	problem := taxonomy.Problem{Rule: taxonomy.UnanimityRule{}, Termination: taxonomy.WT, Consistency: taxonomy.TC}
	for field, opts := range map[string]chaos.Options{
		"Runs":            {Runs: -1},
		"MaxSteps":        {Runs: 10, MaxSteps: -5},
		"OmissionBudget":  {Runs: 10, OmissionBudget: -1},
		"MobileOmissions": {Runs: 10, OmissionBudget: 2, MobileOmissions: -3},
	} {
		rep, err := chaos.Run(context.Background(), consensus.Tree(3), problem, opts)
		if rep != nil || !errors.Is(err, chaos.ErrOptions) || !strings.Contains(err.Error(), field+" is negative") {
			t.Errorf("%s: report %v, error %v; want no report and an ErrOptions naming the field", field, rep, err)
		}
	}
}
