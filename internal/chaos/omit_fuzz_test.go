package chaos

import (
	"bytes"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/protocols"
	"repro/internal/sim"
)

// fuzzProtos is the protocol pool FuzzOmitReplay draws from, all at N=3 so
// every omission policy is well inside the 64-processor bitmask bound.
func fuzzProtos() []sim.Protocol {
	return []sim.Protocol{
		protocols.Tree{Procs: 3},
		protocols.Star{Procs: 3},
		protocols.Chain{Procs: 3},
		protocols.AckCommit{Procs: 3},
		protocols.FullExchange{Procs: 3},
		protocols.HaltingCommit{Procs: 3},
	}
}

// FuzzOmitReplay drives seeded omission-faulted runs through the whole
// trace lifecycle and asserts the three determinism contracts the omission
// fault class must not break:
//
//  1. Trace byte-identity: a run's schedule — Omit events included —
//     encodes to a trace whose decode/re-encode is byte-stable, and whose
//     decoded schedule replays (NewRunOmission + Extend) to the same final
//     configuration, key and fingerprint both.
//  2. Dedup agreement: along the run, two configurations with equal
//     string keys must have equal fingerprints — the invariant that lets
//     fingerprint dedup stand in for full canonical keys.
//  3. Predictor agreement: for every applied event, the incremental
//     successor fingerprint (Predictor.Shift at width 1) matches the
//     fingerprint of the materialized successor, so omission bookkeeping
//     hashes the same on the fast path as on the slow one.
func FuzzOmitReplay(f *testing.F) {
	f.Add(int64(0), int64(7), int64(2), int64(1))
	f.Add(int64(3), int64(1984), int64(3), int64(2))
	f.Add(int64(1), int64(-42), int64(1), int64(0))
	f.Add(int64(5), int64(12345), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, pick, seed, budget, mobile int64) {
		pool := fuzzProtos()
		proto := pool[int(uint64(pick)%uint64(len(pool)))]
		n := proto.N()
		inputs := make([]sim.Bit, n)
		for i := range inputs {
			inputs[i] = sim.Bit((seed >> uint(i)) & 1)
		}
		pol := sim.OmissionPolicy{
			Budget: int(uint64(budget) % 4),
			Mobile: int(uint64(mobile) % 3),
		}
		run, _ := sim.RandomRun(proto, inputs, sim.RunnerOptions{
			Seed: seed, MaxSteps: 2048, Omission: pol,
		})
		if run == nil || run.Steps() == 0 {
			return
		}

		// Contracts 2 and 3: dedup and predictor agreement along the run.
		fpByKey := make(map[string]string)
		for i, c := range run.Configs {
			key, fp := c.Key(), c.Fingerprint().String()
			if prev, ok := fpByKey[key]; ok {
				if prev != fp {
					t.Fatalf("config %d: key %q maps to two fingerprints", i, key)
				}
			} else {
				fpByKey[key] = fp
			}
		}
		pr, one := sim.NewPredictor(), sim.NewPermuteMemo(nil)
		for i, e := range run.Schedule {
			vec := []fingerprint.Digest{run.Configs[i].Fingerprint()}
			if _, ok := pr.Shift(proto, run.Configs[i], e, one, false, vec); !ok {
				t.Fatalf("step %d: Shift refused an applied event %s", i, e)
			}
			if vec[0] != run.Configs[i+1].Fingerprint() {
				t.Fatalf("step %d (%s): predicted fingerprint diverges from materialized successor", i, e)
			}
		}

		// Contract 1: trace round trip and replay identity.
		tr := &Trace{
			Version:         TraceVersion,
			Protocol:        proto.Name(),
			N:               n,
			Problem:         "WT-TC",
			Inputs:          sim.InputsString(inputs),
			RunSeed:         seed,
			MaxSteps:        2048,
			OriginalSteps:   run.Steps(),
			OmissionBudget:  pol.Budget,
			MobileOmissions: pol.Mobile,
		}
		for _, e := range run.Schedule {
			tr.Schedule = append(tr.Schedule, EncodeEvent(e))
		}
		enc, err := tr.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		dec, err := DecodeTrace(enc)
		if err != nil {
			t.Fatalf("DecodeTrace: %v", err)
		}
		enc2, err := dec.Encode()
		if err != nil {
			t.Fatalf("re-Encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("trace encode/decode round trip is not byte-stable:\n%s\nvs\n%s", enc, enc2)
		}
		sched, err := dec.ScheduleEvents()
		if err != nil {
			t.Fatalf("ScheduleEvents: %v", err)
		}
		replay, err := sim.NewRunOmission(proto, inputs, pol)
		if err != nil {
			t.Fatalf("NewRunOmission: %v", err)
		}
		if err := replay.Extend(sched); err != nil {
			t.Fatalf("decoded schedule does not replay: %v", err)
		}
		if got, want := replay.Final().Key(), run.Final().Key(); got != want {
			t.Fatalf("replay final key diverges:\n  %s\nvs\n  %s", got, want)
		}
		if replay.Final().Fingerprint() != run.Final().Fingerprint() {
			t.Fatal("replay final fingerprint diverges")
		}
		if replay.Omissions() != run.Omissions() {
			t.Fatalf("replay lost omissions: %d vs %d", replay.Omissions(), run.Omissions())
		}
	})
}
