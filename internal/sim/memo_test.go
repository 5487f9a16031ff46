package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	consensus "repro"
	"repro/internal/sim"
)

// memoAgrees fails the test unless every processor's KindAt and DecidedAt
// in c read what its state says.
func memoAgrees(t *testing.T, id string, c *sim.Config) {
	t.Helper()
	for p := range c.States {
		pid := sim.ProcID(p)
		if got, want := c.KindAt(pid), c.States[p].Kind(); got != want {
			t.Fatalf("%s: KindAt(%s) = %s, state says %s", id, pid, got, want)
		}
		gd, gok := c.DecidedAt(pid)
		wd, wok := c.States[p].Decided()
		if gd != wd || gok != wok {
			t.Fatalf("%s: DecidedAt(%s) = (%s, %v), state says (%s, %v)", id, pid, gd, gok, wd, wok)
		}
	}
}

// TestMemoMatchesStates holds the kind and decision memo to the states on
// random walks of every library protocol, with crashes and under an
// omission budget: at every step, on the walked configuration and on the
// copy the walk goes on from (CopyFrom), with the fingerprint cache cold
// and, on odd seeds from the fifth step, warm. A configuration built
// outside NewConfig and CopyFrom — PermuteConfig, WithoutDeadBuffers, or a
// literal such as bench/probes.go builds — keeps no memo and must ask its
// states: they are checked at every step as well.
func TestMemoMatchesStates(t *testing.T) {
	policies := []sim.OmissionPolicy{{}, {Budget: 2, Mobile: 1}}
	steps, crashes, omits, decided, permuted, elided, warmed := 0, 0, 0, 0, 0, 0, 0
	for _, name := range consensus.ProtocolNames() {
		proto, err := consensus.ProtocolByName(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		n := proto.N()
		reverse := make(sim.ProcPerm, n)
		for p := range reverse {
			reverse[p] = sim.ProcID(n - 1 - p)
		}
		for _, pol := range policies {
			for seed := int64(0); seed < 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				inputs := make([]sim.Bit, n)
				for p := range inputs {
					inputs[p] = sim.Bit(rng.Intn(2))
				}
				c, next := sim.NewConfigOmission(proto, inputs, pol), &sim.Config{}
				var enabled []sim.Event
			walk:
				for i := 0; i < 400; i++ {
					id := fmt.Sprintf("%s/%s/seed %d/step %d", name, pol, seed, i)
					memoAgrees(t, id, c)
					if pc, ok := sim.PermuteConfig(c, reverse); ok {
						memoAgrees(t, id+"/permuted", pc)
						permuted++
					}
					if ec, ok := c.WithoutDeadBuffers(); ok {
						memoAgrees(t, id+"/elided", ec)
						elided++
					}
					memoAgrees(t, id+"/literal", &sim.Config{States: c.States, Buffers: c.Buffers, Inputs: c.Inputs})
					if seed%2 == 1 && i == 5 {
						c.Fingerprint()
						warmed++
					}

					enabled = sim.AppendEnabled(enabled[:0], c)
					var e sim.Event
					switch {
					case rng.Intn(25) == 0:
						p := sim.ProcID(rng.Intn(n))
						if c.Faulty(p) {
							continue
						}
						e = sim.Event{Proc: p, Type: sim.Fail}
						crashes++
					case len(enabled) == 0:
						break walk
					default:
						e = enabled[rng.Intn(len(enabled))]
					}
					if err := c.ApplyInPlace(proto, e); err != nil {
						t.Fatalf("%s: %s: %v", id, e, err)
					}
					if e.Type == sim.Omit {
						omits++
					}
					steps++
					next.CopyFrom(c)
					memoAgrees(t, id+"/copy", next)
					c, next = next, c
				}
				for p := range c.States {
					if _, ok := c.DecidedAt(sim.ProcID(p)); ok {
						decided++
					}
				}
			}
		}
	}
	t.Logf("%d steps, %d crashes, %d omissions, %d final decisions, %d permuted, %d elided, %d warmed",
		steps, crashes, omits, decided, permuted, elided, warmed)
	if steps < 5000 || crashes < 100 || omits < 100 || decided < 100 || permuted < 1000 || elided < 100 || warmed < 100 {
		t.Errorf("thin coverage: %d steps, %d crashes, %d omissions, %d final decisions, %d permuted, %d elided, %d warmed",
			steps, crashes, omits, decided, permuted, elided, warmed)
	}
}
