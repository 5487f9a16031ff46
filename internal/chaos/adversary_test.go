package chaos

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

func TestNewAdversaryNames(t *testing.T) {
	for _, tc := range []struct {
		flag string
		want string
	}{
		{"", AdversaryUniform},
		{AdversaryUniform, AdversaryUniform},
		{AdversaryDelay, AdversaryDelay},
		{AdversaryAdaptive, AdversaryAdaptive},
	} {
		adv, err := NewAdversary(tc.flag)
		if err != nil {
			t.Fatalf("NewAdversary(%q): %v", tc.flag, err)
		}
		if adv.Name() != tc.want {
			t.Errorf("NewAdversary(%q).Name() = %q, want %q", tc.flag, adv.Name(), tc.want)
		}
	}
	if _, err := NewAdversary("bogus"); err == nil {
		t.Fatal("NewAdversary(\"bogus\") accepted an unknown strategy")
	}
}

// omissionSweepOptions is the shared omission-chaos configuration: enough
// seeded runs against the threshold-free ack protocol that every adversary
// finds WT-TC unanimity violations through suppressed deliveries.
func omissionSweepOptions(adversary string) Options {
	return Options{
		Runs: 50, Seed: 7, MaxFailures: 1, Minimize: true,
		Adversary: adversary, OmissionBudget: 2, MobileOmissions: 1,
	}
}

func omissionSweep(t *testing.T, adversary string, parallel int) *Report {
	t.Helper()
	opts := omissionSweepOptions(adversary)
	opts.Parallel = parallel
	rep, err := Run(context.Background(), protocols.AckCommit{Procs: 3},
		problem(taxonomy.WT, taxonomy.TC), opts)
	if err != nil {
		t.Fatalf("chaos.Run(adversary=%s): %v", adversary, err)
	}
	return rep
}

// TestAdversarySweepDeterminism checks that every adversary strategy keeps
// the sweep a pure function of seed and options under omission faults:
// re-running with a different worker-pool size must reproduce the verdict
// partition, the injection and omission accounting, the per-run stats, and
// every trace byte for byte.
func TestAdversarySweepDeterminism(t *testing.T) {
	for _, adv := range []string{AdversaryUniform, AdversaryDelay, AdversaryAdaptive} {
		t.Run(adv, func(t *testing.T) {
			a := omissionSweep(t, adv, 1)
			b := omissionSweep(t, adv, 8)
			if a.Violated != b.Violated || a.Passed != b.Passed ||
				a.Unresolved != b.Unresolved || a.Panicked != b.Panicked {
				t.Fatalf("verdicts differ across parallelism: %d/%d violated, %d/%d passed",
					a.Violated, b.Violated, a.Passed, b.Passed)
			}
			if a.Omissions != b.Omissions || a.InjectionsFired != b.InjectionsFired ||
				a.InjectionsUnfired != b.InjectionsUnfired {
				t.Fatalf("fault accounting differs across parallelism: %d/%d omissions",
					a.Omissions, b.Omissions)
			}
			if len(a.RunStats) != len(b.RunStats) {
				t.Fatalf("run stats length differs: %d vs %d", len(a.RunStats), len(b.RunStats))
			}
			for i := range a.RunStats {
				if a.RunStats[i] != b.RunStats[i] {
					t.Fatalf("run stat %d differs: %+v vs %+v", i, a.RunStats[i], b.RunStats[i])
				}
			}
			if len(a.Failures) != len(b.Failures) {
				t.Fatalf("failure count differs: %d vs %d", len(a.Failures), len(b.Failures))
			}
			for i := range a.Failures {
				ea, err := BuildTrace(a, a.Failures[i], 10_000).Encode()
				if err != nil {
					t.Fatal(err)
				}
				eb, err := BuildTrace(b, b.Failures[i], 10_000).Encode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ea, eb) {
					t.Fatalf("trace %d differs across parallelism:\n%s\n---\n%s", i, ea, eb)
				}
			}
		})
	}
}

// TestAdaptiveFindsOmissionViolation is the acceptance scenario: AckCommit
// survives crash-only chaos under WT-TC, but an adaptive adversary holding
// a mobile omission budget of two suppresses commit-phase deliveries and
// violates unanimity. The shrunk counterexample must still be a genuine
// omission counterexample: locally 1-minimal, with at least one Omit event
// doing the damage, and shrinking must terminate (schedules carrying
// several fault events once livelocked the retime pass).
func TestAdaptiveFindsOmissionViolation(t *testing.T) {
	crashOnly := omissionSweepOptions(AdversaryAdaptive)
	crashOnly.OmissionBudget = 0
	crashOnly.MobileOmissions = 0
	rep, err := Run(context.Background(), protocols.AckCommit{Procs: 3},
		problem(taxonomy.WT, taxonomy.TC), crashOnly)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violated != 0 || rep.Panicked != 0 {
		t.Fatalf("crash-only sweep should be clean: %d violated, %d panicked", rep.Violated, rep.Panicked)
	}

	rep = omissionSweep(t, AdversaryAdaptive, 0)
	if rep.Violated == 0 {
		t.Fatalf("adaptive adversary found no omission violation in %d runs", rep.Runs)
	}
	if rep.Omissions == 0 {
		t.Fatal("sweep reported violations but zero omissions fired")
	}
	f := firstViolated(t, rep)
	kind := f.Violations[0].Kind
	omits := 0
	for _, e := range f.Schedule {
		if e.Type == sim.Omit {
			omits++
		}
	}
	if omits == 0 {
		t.Fatalf("shrunk counterexample carries no Omit event: %v", f.Schedule)
	}
	if omits > 2 {
		t.Fatalf("shrunk counterexample uses %d omissions, budget was 2", omits)
	}
	proto := protocols.AckCommit{Procs: 3}
	prob := problem(taxonomy.WT, taxonomy.TC)
	if !hasKind(Evaluate(proto, f.Inputs, f.Schedule, prob).Violations, kind) {
		t.Fatalf("shrunk schedule no longer violates %s", kind)
	}
	for i := range f.Schedule {
		cand := make(sim.Schedule, 0, len(f.Schedule)-1)
		cand = append(cand, f.Schedule[:i]...)
		cand = append(cand, f.Schedule[i+1:]...)
		if hasKind(Evaluate(proto, f.Inputs, cand, prob).Violations, kind) {
			t.Fatalf("schedule is not 1-minimal: removing event %d (%v) still violates %s",
				i, f.Schedule[i], kind)
		}
	}
}

// TestOmitTraceRoundTripReplay serializes an omission counterexample and
// replays it from the decoded bytes: the replay must reproduce the recorded
// violations, and the trace must carry the adversary name (non-uniform
// strategies only) and the omission policy as provenance.
func TestOmitTraceRoundTripReplay(t *testing.T) {
	rep := omissionSweep(t, AdversaryAdaptive, 0)
	f := firstViolated(t, rep)
	tr := BuildTrace(rep, f, 10_000)
	if tr.Adversary != AdversaryAdaptive {
		t.Fatalf("trace adversary = %q, want %q", tr.Adversary, AdversaryAdaptive)
	}
	if tr.OmissionBudget != 2 || tr.MobileOmissions != 1 {
		t.Fatalf("trace omission policy = %d/%d, want 2/1", tr.OmissionBudget, tr.MobileOmissions)
	}
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(enc), `"omit"`) {
		t.Fatalf("encoded trace carries no omit event:\n%s", enc)
	}
	dec, err := DecodeTrace(enc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(dec, protocols.AckCommit{Procs: 3}, problem(taxonomy.WT, taxonomy.TC))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Fatalf("replay did not reproduce the recorded violations: got %v, want %v",
			res.Violations, tr.Violations)
	}

	// The uniform default stays off the wire so pre-adversary traces are
	// byte-identical.
	uni := omissionSweep(t, AdversaryUniform, 0)
	uf := firstViolated(t, uni)
	if tr := BuildTrace(uni, uf, 10_000); tr.Adversary != "" {
		t.Fatalf("uniform sweeps must omit the adversary field, got %q", tr.Adversary)
	}
}
