package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
)

// candidates lists what a live trace can carry at c: the enabled events, a
// crash of every live processor, an omission of every buffered message
// (replay accepts Omit whatever the policy: budgets bind enumeration only),
// and two events that do not apply.
func candidates(c *sim.Config) (applicable, inapplicable []sim.Event) {
	applicable = sim.Enabled(c)
	for p := 0; p < c.N(); p++ {
		pid := sim.ProcID(p)
		if c.Faulty(pid) {
			inapplicable = append(inapplicable, sim.Event{Proc: pid, Type: sim.Fail})
			continue
		}
		applicable = append(applicable, sim.Event{Proc: pid, Type: sim.Fail})
		for _, m := range c.Buffers[p] {
			applicable = append(applicable, sim.Event{Proc: pid, Type: sim.Omit, Msg: m.ID})
		}
	}
	inapplicable = append(inapplicable,
		sim.Event{Proc: 0, Type: sim.Deliver, Msg: sim.MsgID{From: 1, To: 0, Seq: 99}},
		sim.Event{Proc: sim.ProcID(c.N()), Type: sim.SendStepEvent})
	return applicable, inapplicable
}

// TestApplyInPlaceMatchesApply walks seeded random schedules — crashes and
// omissions included — applying every event twice: sim.Apply on a
// persistent chain of configurations, ApplyInPlace on one configuration the
// walk owns. After every event the two agree on key, fingerprint, states,
// buffers, channel counters (sameConfig) and quiescence, and PostState has
// named the stepping processor's new state beforehand; an event that does
// not apply gets the same error from all three and leaves the owned
// configuration as it was. The fingerprint cache is exercised warm (kept up
// to date incrementally by both) and cold (never asked for on the walked
// configurations; the comparison fingerprints clones).
func TestApplyInPlaceMatchesApply(t *testing.T) {
	protos := []sim.Protocol{protocols.Tree{Procs: 3}, protocols.Star{Procs: 4}, protocols.AckCommit{Procs: 4}}
	policies := []sim.OmissionPolicy{{}, {Budget: 3, Mobile: 1}}
	byType, refused := make(map[sim.EventType]int), 0
	for _, proto := range protos {
		for _, pol := range policies {
			for _, warm := range []bool{false, true} {
				for seed := int64(1); seed <= 12; seed++ {
					rng := rand.New(rand.NewSource(seed))
					inputs := make([]sim.Bit, proto.N())
					for i := range inputs {
						inputs[i] = sim.Bit(rng.Intn(2))
					}
					chain := sim.NewConfigOmission(proto, inputs, pol)
					own := sim.NewConfigOmission(proto, inputs, pol)
					if warm {
						chain.Fingerprint()
						own.Fingerprint()
					}
					name := fmt.Sprintf("%s policy %s warm=%v seed %d", proto.Name(), pol, warm, seed)
					for step := 0; step < 80; step++ {
						applicable, inapplicable := candidates(chain)
						bad := inapplicable[rng.Intn(len(inapplicable))]
						before := own.Key()
						_, _, wantErr := sim.Apply(proto, chain, bad)
						gotErr := own.ApplyInPlace(proto, bad)
						_, postErr := sim.PostState(proto, own, bad)
						if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() || own.Key() != before {
							t.Fatalf("%s: %s: in-place error %v, Apply's %v; configuration changed: %v", name, bad, gotErr, wantErr, own.Key() != before)
						}
						if postErr == nil || postErr.Error() != wantErr.Error() {
							t.Fatalf("%s: %s: PostState error %v, Apply's %v", name, bad, postErr, wantErr)
						}
						refused++
						if len(applicable) == 0 {
							break // everybody has crashed
						}
						// Favour protocol steps, so runs get somewhere before
						// the crashes and omissions starve them.
						ev := applicable[rng.Intn(len(applicable))]
						if enabled := sim.Enabled(chain); len(enabled) > 0 && rng.Intn(4) > 0 {
							ev = enabled[rng.Intn(len(enabled))]
						}
						next, _, err := sim.Apply(proto, chain, ev)
						if err != nil {
							t.Fatalf("%s: Apply %s: %v", name, ev, err)
						}
						post, err := sim.PostState(proto, own, ev)
						if err != nil || post.Key() != next.States[ev.Proc].Key() || own.Key() != before {
							t.Fatalf("%s: PostState %s = %v, %v; Apply put the processor in %s; configuration changed: %v",
								name, ev, post, err, next.States[ev.Proc].Key(), own.Key() != before)
						}
						if err := own.ApplyInPlace(proto, ev); err != nil {
							t.Fatalf("%s: ApplyInPlace %s: %v", name, ev, err)
						}
						if own.Quiescent() != next.Quiescent() || own.OmissionsUsed() != next.OmissionsUsed() {
							t.Fatalf("%s: after %s quiescent %v, omissions %d; Apply's %v, %d", name, ev,
								own.Quiescent(), own.OmissionsUsed(), next.Quiescent(), next.OmissionsUsed())
						}
						if warm {
							sameConfig(t, proto, ev, own, next)
						} else {
							sameConfig(t, proto, ev, own.Clone(), next.Clone())
						}
						chain = next
						byType[ev.Type]++
					}
				}
			}
		}
	}
	for _, typ := range []sim.EventType{sim.SendStepEvent, sim.Deliver, sim.Fail, sim.Omit} {
		if byType[typ] < 200 {
			t.Errorf("only %d %s events checked", byType[typ], typ)
		}
	}
	if refused < 2000 {
		t.Errorf("only %d refusals checked", refused)
	}
}
