package sim_test

import (
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
)

// TestMaterializeFromWarmCache walks two library protocols breadth-first and
// holds Predictor.Materialize, on a cache that has already seen the
// transition (the Predict before it stores the entry, and most transitions
// were stored by an earlier edge), to sim.Apply on every edge: the
// configuration key and fingerprint, every local state, every buffer, the
// effect, and the sequence number the next message on every channel of a
// live processor would get. Materialize builds the successor from the
// remembered post-state and payload without calling the protocol, so this is
// what keeps the memory honest.
func TestMaterializeFromWarmCache(t *testing.T) {
	cells := []struct {
		proto   sim.Protocol
		maxFail int
	}{
		{protocols.Tree{Procs: 3}, 1},
		{protocols.FullExchange{Procs: 3}, 0},
	}
	for _, cell := range cells {
		proto := cell.proto
		t.Run(proto.Name(), func(t *testing.T) {
			type item struct {
				c        *sim.Config
				failures int
			}
			pr := sim.NewPredictor()
			seen := make(map[string]struct{})
			var queue []item
			for _, inputs := range sim.AllInputs(proto.N()) {
				queue = append(queue, item{c: sim.NewConfig(proto, inputs)})
			}
			edges := 0
			for head := 0; head < len(queue); head++ {
				it := queue[head]
				events := sim.Enabled(it.c)
				if it.failures < cell.maxFail {
					for p := 0; p < it.c.N(); p++ {
						if !it.c.Faulty(sim.ProcID(p)) {
							events = append(events, sim.Event{Proc: sim.ProcID(p), Type: sim.Fail})
						}
					}
				}
				for _, ev := range events {
					want, wantEff, err := sim.Apply(proto, it.c, ev)
					if err != nil {
						t.Fatalf("apply %s: %v", ev, err)
					}
					if _, ok := pr.Predict(proto, it.c, ev); !ok {
						t.Fatalf("Predict refused applicable event %s", ev)
					}
					got, eff, err := pr.Materialize(proto, it.c, ev)
					if err != nil {
						t.Fatalf("materialize %s: %v", ev, err)
					}
					edges++
					sameConfig(t, proto, ev, got, want)
					if len(eff.Sent) != len(wantEff.Sent) || (eff.Received == nil) != (wantEff.Received == nil) {
						t.Fatalf("%s: effect shape diverges from Apply's", ev)
					}
					for i := range eff.Sent {
						if eff.Sent[i].Key() != wantEff.Sent[i].Key() || eff.Sent[i].Digest() != wantEff.Sent[i].Digest() {
							t.Fatalf("%s: sent %s, Apply sent %s", ev, eff.Sent[i].Key(), wantEff.Sent[i].Key())
						}
					}
					if eff.Received != nil && eff.Received.Key() != wantEff.Received.Key() {
						t.Fatalf("%s: received %s, Apply received %s", ev, eff.Received.Key(), wantEff.Received.Key())
					}
					if _, dup := seen[want.Key()]; dup {
						continue
					}
					seen[want.Key()] = struct{}{}
					failures := it.failures
					if ev.Type == sim.Fail {
						failures++
					}
					// The walk continues from the materialized successor, so
					// a divergence would also compound downstream.
					queue = append(queue, item{c: got, failures: failures})
				}
			}
			if edges < 500 {
				t.Fatalf("only %d edges checked", edges)
			}
			t.Logf("%d edges over %d configurations", edges, len(seen))
		})
	}
}

// sameConfig holds a materialized successor to the applied one.
func sameConfig(t *testing.T, proto sim.Protocol, ev sim.Event, got, want *sim.Config) {
	t.Helper()
	if got.Key() != want.Key() {
		t.Fatalf("%s: key diverges from Apply:\n  %s\n  %s", ev, got.Key(), want.Key())
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint diverges from Apply at %s", ev, want.Key())
	}
	for p := range want.States {
		if got.States[p].Key() != want.States[p].Key() {
			t.Fatalf("%s: p%d is in %s, Apply put it in %s", ev, p, got.States[p].Key(), want.States[p].Key())
		}
		if got.StateDigestAt(p) != want.StateDigestAt(p) {
			t.Fatalf("%s: cached digest of p%d diverges from Apply's", ev, p)
		}
		if got.Buffers[p].Key() != want.Buffers[p].Key() {
			t.Fatalf("%s: buffer of p%d is %s, Apply left %s", ev, p, got.Buffers[p].Key(), want.Buffers[p].Key())
		}
	}
	// Channel sequence counters are in neither key nor fingerprint. A crash
	// broadcasts on every outgoing channel of the crashing processor, so
	// crashing each live processor reads them all back.
	for p := 0; p < want.N(); p++ {
		fail := sim.Event{Proc: sim.ProcID(p), Type: sim.Fail}
		if want.Faulty(fail.Proc) {
			continue
		}
		_, gotEff, gotErr := sim.Apply(proto, got, fail)
		_, wantEff, wantErr := sim.Apply(proto, want, fail)
		if gotErr != nil || wantErr != nil || len(gotEff.Sent) != len(wantEff.Sent) {
			t.Fatalf("%s then %s: errors %v / %v", ev, fail, gotErr, wantErr)
		}
		for i := range wantEff.Sent {
			if gotEff.Sent[i].ID != wantEff.Sent[i].ID {
				t.Fatalf("%s: next message is %s, after Apply it is %s", ev, gotEff.Sent[i].ID, wantEff.Sent[i].ID)
			}
		}
	}
}
