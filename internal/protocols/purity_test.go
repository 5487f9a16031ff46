package protocols

import (
	"testing"

	"repro/internal/sim"
)

// keyGuard wraps a protocol and holds its transitions to the value
// semantics the checker relies on: a step never changes the state it was
// given, and no later step changes a state an earlier one returned. Pending
// send queues share their arrays between a state and its successors
// (dropHead reslices), so a write through a shared queue shows up here as a
// key that moved.
type keyGuard struct {
	sim.Protocol
	t    *testing.T
	kept []keyedState // every state a step returned, with its key then
}

type keyedState struct {
	s   sim.State
	key string
}

func (g *keyGuard) check(what string, p sim.ProcID, s sim.State, before string) {
	g.t.Helper()
	if after := s.Key(); after != before {
		g.t.Fatalf("%s: %s of %s changed its input state\n from %s\n   to %s", g.Name(), what, p, before, after)
	}
}

func (g *keyGuard) SendStep(p sim.ProcID, s sim.State) (sim.State, []sim.Envelope) {
	before := s.Key()
	post, envs := g.Protocol.SendStep(p, s)
	g.check("SendStep", p, s, before)
	g.kept = append(g.kept, keyedState{post, post.Key()})
	return post, envs
}

func (g *keyGuard) Receive(p sim.ProcID, s sim.State, m sim.Message) sim.State {
	before := s.Key()
	post := g.Protocol.Receive(p, s, m)
	g.check("Receive", p, s, before)
	g.kept = append(g.kept, keyedState{post, post.Key()})
	return post
}

// TestTransitionsLeaveStatesUnchanged walks every library protocol at
// random, with crashes, through the key guard: each SendStep and Receive
// must leave its input state's key as it was, and at the end of the walk
// every state a step returned must still have the key it had then.
func TestTransitionsLeaveStatesUnchanged(t *testing.T) {
	protos := []sim.Protocol{
		Tree{Procs: 7},
		Tree{Procs: 7, ST: true},
		Star{Procs: 5},
		Chain{Procs: 4},
		Chain{Procs: 4, ST: true},
		Perverse{},
		Termination{Procs: 4},
		AckCommit{Procs: 5},
		HaltingCommit{Procs: 5},
		Broadcast{Procs: 5},
		FullExchange{Procs: 4},
		TwoPhaseCommit{Procs: 5},
		ThresholdCommit{Procs: 5, K: 3},
	}
	for _, proto := range protos {
		t.Run(proto.Name(), func(t *testing.T) {
			n := proto.N()
			steps := 0
			for seed := int64(0); seed < 40; seed++ {
				inputs := make([]sim.Bit, n)
				for i := range inputs {
					inputs[i] = sim.Bit((seed >> uint(i%6)) & 1)
				}
				var failures []sim.FailureAt
				for k := int64(0); k < seed%3; k++ {
					failures = append(failures, sim.FailureAt{Proc: sim.ProcID((seed + 3*k) % int64(n)), AfterStep: int((seed*7 + k*5) % 19)})
				}
				g := &keyGuard{Protocol: proto, t: t}
				c := sim.NewConfig(g, inputs)
				if _, _, err := sim.RandomWalk(g, c, sim.RunnerOptions{Seed: seed, Failures: failures}, nil, func(sim.Event, *sim.Config) {}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for i, k := range g.kept {
					if got := k.s.Key(); got != k.key {
						t.Fatalf("seed %d: state %d changed after it was returned\n from %s\n   to %s", seed, i, k.key, got)
					}
				}
				steps += len(g.kept)
			}
			if steps == 0 {
				t.Fatal("the walks took no step")
			}
		})
	}
}
