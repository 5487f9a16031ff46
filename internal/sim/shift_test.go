package sim_test

import (
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/symmetry"
)

// TestShiftMatchesVector walks star(3) with up to two failures and
// fullexchange(3) with up to one breadth-first and holds Predictor.Shift to
// the vector of the successor Materialize builds (held to Apply by
// TestMaterializeFromWarmCache) on every edge, with dead-letter
// elision on and off: every slot, the elided flag (ElidedFingerprint's
// report on the successor) and the post-state's decision. Three edges the
// shift treats specially are counted by name and must occur: a failure of a
// halted processor (its box is already dead), a delivery that halts its
// receiver (the rest of its box goes dead), and a send or a failure notice
// into a dead box (nothing is added). ackcommit(3) with one failure and an
// omission budget of 1 with one mobile slot holds slot 0, the only one
// without permutations, to the omission accounting on every edge, Omits
// counted; with permutations a budget is refused. -short skips
// fullexchange(3): 1.7 M edges.
func TestShiftMatchesVector(t *testing.T) {
	for _, cell := range []struct {
		proto   sim.Protocol
		maxFail int
		pol     sim.OmissionPolicy
	}{
		{protocols.Star{Procs: 3}, 2, sim.OmissionPolicy{}},
		{protocols.FullExchange{Procs: 3}, 1, sim.OmissionPolicy{}},
		{protocols.AckCommit{Procs: 3}, 1, sim.OmissionPolicy{Budget: 1, Mobile: 1}},
	} {
		proto := cell.proto
		t.Run(proto.Name(), func(t *testing.T) {
			if _, fx := proto.(protocols.FullExchange); fx && testing.Short() {
				t.Skip("1.7 M edges; run without -short")
			}
			perms := symmetry.ForProtocol(proto)
			if cell.pol.Enabled() {
				perms = nil
			}
			memo, pr := sim.NewPermuteMemo(perms), sim.NewPredictor()
			w := memo.Width()
			got, want := make([]fingerprint.Digest, w), make([]fingerprint.Digest, w)
			parent := [2][]fingerprint.Digest{make([]fingerprint.Digest, w), make([]fingerprint.Digest, w)}
			type item struct {
				c        *sim.Config
				failures int
			}
			var queue []item
			seen := make(map[fingerprint.Digest]bool)
			for _, inputs := range sim.AllInputs(proto.N()) {
				queue = append(queue, item{c: sim.NewConfigOmission(proto, inputs, cell.pol)})
			}
			var edges, failHalted, deliverHalts, intoDeadBox, omits int
			swap, swapVec := sim.NewPermuteMemo([]sim.ProcPerm{{1, 0, 2}}), make([]fingerprint.Digest, 2)
			dead := func(s sim.State) bool { return s.Kind() == sim.Failed || s.Kind() == sim.Halted }
			for head := 0; head < len(queue); head++ {
				it := queue[head]
				queue[head] = item{}
				events := sim.Enabled(it.c)
				if it.failures < cell.maxFail {
					for p := 0; p < it.c.N(); p++ {
						if !it.c.Faulty(sim.ProcID(p)) {
							events = append(events, sim.Event{Proc: sim.ProcID(p), Type: sim.Fail})
						}
					}
				}
				for i, elide := range []bool{false, true} {
					if _, ok := memo.Vector(parent[i], it.c, elide); !ok {
						t.Fatal("Vector refused a library state")
					}
				}
				for _, ev := range events {
					var eff sim.Effect
					next, err := pr.Materialize(proto, it.c, ev, nil, &eff)
					if err != nil {
						t.Fatalf("apply %s: %v", ev, err)
					}
					edges++
					post := next.States[ev.Proc]
					switch {
					case ev.Type == sim.Fail && it.c.States[ev.Proc].Kind() == sim.Halted:
						failHalted++
					case ev.Type == sim.Deliver && post.Kind() == sim.Halted:
						deliverHalts++
					case ev.Type == sim.Omit:
						omits++
					}
					if cell.pol.Enabled() {
						if _, ok := pr.Shift(proto, it.c, ev, swap, false, swapVec); ok {
							t.Fatalf("Shift accepted %s with a permutation under %v", ev, cell.pol)
						}
					}
					for _, m := range eff.Sent {
						if dead(it.c.States[m.ID.To]) {
							intoDeadBox++
							break
						}
					}
					for i, elide := range []bool{false, true} {
						copy(got, parent[i])
						sh, ok := pr.Shift(proto, it.c, ev, memo, elide, got)
						if !ok {
							t.Fatalf("Shift refused applicable event %s", ev)
						}
						elided, _ := memo.Vector(want, next, elide)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s after %s, elide=%v: slot %d shifted to %v, successor's vector has %v", it.c.Key(), ev, elide, i, got[i], want[i])
							}
						}
						if sh.Elided != (elide && elided) {
							t.Fatalf("%s after %s, elide=%v: Shift reports elided=%v, successor %v", it.c.Key(), ev, elide, sh.Elided, elided)
						}
						if d, ok := post.Decided(); sh.Decision != d || sh.Decided != ok {
							t.Fatalf("%s after %s: Shift reports decision %v/%v, post-state %v/%v", it.c.Key(), ev, sh.Decision, sh.Decided, d, ok)
						}
					}
					if k := next.Fingerprint(); !seen[k] {
						seen[k] = true
						failures := it.failures
						if ev.Type == sim.Fail {
							failures++
						}
						queue = append(queue, item{c: next, failures: failures})
					}
				}
			}
			t.Logf("%d edges: %d failures of a halted processor, %d deliveries that halt, %d sends or notices into a dead box, %d omits",
				edges, failHalted, deliverHalts, intoDeadBox, omits)
			if intoDeadBox == 0 {
				t.Error("no send or failure notice into a dead box")
			}
			if cell.pol.Enabled() && omits == 0 {
				t.Errorf("%v: no Omit edge", cell.pol)
			}
			if _, star := proto.(protocols.Star); star && (failHalted == 0 || deliverHalts == 0) {
				t.Errorf("star: %d failures of a halted processor, %d deliveries that halt its receiver; want both", failHalted, deliverHalts)
			}
		})
	}
}
