package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	consensus "repro"
)

// cclive runs the command in-process, in memory: no subprocess, no socket.
func cclive(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestPrintFaultsIsAFunctionOfTheSeed: the fault schedule dump — crashes,
// omissions, link faults — repeats byte for byte and moves with the seed.
func TestPrintFaultsIsAFunctionOfTheSeed(t *testing.T) {
	dump := func(seed string) string {
		code, out, errOut := cclive("-proto", "ackcommit", "-n", "4", "-runs", "5", "-seed", seed,
			"-omit-rate", "0.15", "-omit-max-seq", "4", "-crash-horizon", "8", "-sever-rate", "0.2", "-print-faults")
		if code != 0 || errOut != "" || !strings.HasPrefix(out, "run 0 seed=") {
			t.Fatalf("-print-faults -seed %s: exit %d, stderr %q, stdout:\n%s", seed, code, errOut, out)
		}
		return out
	}
	a := dump("1984")
	if b := dump("1984"); a != b {
		t.Errorf("two dumps of seed 1984 differ:\n%s\n---\n%s", a, b)
	}
	if a == dump("1985") {
		t.Error("seeds 1984 and 1985 dump the same schedule")
	}
	for _, want := range []string{"crash p", "omit ", "sever"} {
		if !strings.Contains(a, want) {
			t.Errorf("dump shows no %q line:\n%s", want, a)
		}
	}
}

// TestMalformedFlagsAreUsageErrors: exit 1, the complaint on stderr, nothing
// run and nothing on stdout. A rate outside [0,1] would otherwise drop every
// attempt and wait out the deadline on every run; the 100ms one bounds this
// test if it is not refused.
func TestMalformedFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-isolate", "1,x"},
		{"-proto", "nope"},
		{"-problem", "XX"},
		{"-runs", "-1"},
		{"-runs", "1", "-deadline", "100ms", "-drop", "2"},
		{"-runs", "1", "-deadline", "100ms", "-dup", "-0.5"},
		{"-runs", "1", "-deadline", "100ms", "-omit-rate", "1.5"},
		{"-runs", "1", "-deadline", "100ms", "-sever-rate", "NaN"},
		{"-runs", "1", "-deadline", "100ms", "-conform-sample", "-1"},
		{"-runs", "1", "-deadline", "100ms", "-conform-sample", "NaN"},
		{"-runs", "1", "-deadline", "100ms", "-conform-sample", "1.5"},
	} {
		code, out, errOut := cclive(args...)
		if code != 1 || out != "" || !strings.HasPrefix(errOut, "cclive: ") {
			t.Errorf("cclive %v: exit %d, stdout %q, stderr %q; want exit 1 and a diagnostic", args, code, out, errOut)
		}
	}
}

// TestSampledSoakCountsItsReplays: when -conform-sample leaves runs
// unreplayed, the OK line says how many traces were replayed of how many,
// not that every one was.
func TestSampledSoakCountsItsReplays(t *testing.T) {
	code, out, errOut := cclive("-proto", "tree", "-n", "3", "-runs", "4", "-seed", "1", "-conform-sample", "0.5")
	if code != 0 || !strings.Contains(out, "conformance-replayed 2,") ||
		!strings.Contains(out, "\nOK: 2 of 4 live traces replayed, each as a legal run of the model\n") {
		t.Errorf("-conform-sample 0.5: exit %d, stderr %q, stdout:\n%s", code, errOut, out)
	}
}

// TestEmptySoakReportsTheProtocolsN: a soak of zero runs is clean, and its
// JSON summary takes N from the protocol, not from a run that never was.
func TestEmptySoakReportsTheProtocolsN(t *testing.T) {
	code, out, errOut := cclive("-runs", "0", "-json", "-")
	if code != 0 || !strings.Contains(out, "\nOK: ") || !strings.Contains(out, `"n": 3`) {
		t.Errorf("-runs 0 -json -: exit %d, stderr %q, stdout:\n%s", code, errOut, out)
	}
}

// TestBroadcastGeneralOutsideTheProtocolIsRefused: -rule broadcast-P with
// P ≥ N is a usage error before any run, not a panic in every run's judge
// reported as the protocol violating; P < N still soaks.
func TestBroadcastGeneralOutsideTheProtocolIsRefused(t *testing.T) {
	for _, p := range []string{"3", "7"} {
		code, out, errOut := cclive("-proto", "tree", "-n", "3", "-rule", "broadcast-"+p, "-runs", "2")
		if code != 1 || out != "" || !strings.Contains(errOut, "-rule broadcast-"+p) || !strings.Contains(errOut, "N=3") {
			t.Errorf("-rule broadcast-%s with N=3: exit %d, stdout %q, stderr %q; want exit 1 naming -rule and N", p, code, out, errOut)
		}
	}
	code, out, errOut := cclive("-proto", "broadcast", "-n", "3", "-rule", "broadcast-0", "-runs", "2", "-seed", "1984",
		"-max-failures", "0", "-drop", "0", "-dup", "0", "-delay", "0")
	if code != 0 || !strings.Contains(out, "\nOK: ") {
		t.Errorf("-rule broadcast-0 with N=3: exit %d, stderr %q, stdout:\n%s", code, errOut, out)
	}
}

// TestCleanSoakConforms: a fault-free in-memory soak replays as legal runs.
func TestCleanSoakConforms(t *testing.T) {
	code, out, errOut := cclive("-proto", "tree", "-n", "3", "-runs", "4", "-seed", "1984",
		"-max-failures", "0", "-drop", "0", "-dup", "0", "-delay", "0")
	if code != 0 || !strings.Contains(out, "\nOK: ") || !strings.Contains(out, "(4 completed, 0 aborted)") {
		t.Errorf("clean soak: exit %d, stderr %q, stdout:\n%s", code, errOut, out)
	}
}

// TestDuplicatesWithoutDedupAreCaught is the soak's teeth: with receiver
// dedup off and half of all acks lost, a duplicate delivery must reach a
// processor in some of eight runs, and the conformance replay must refuse
// it. Every trace the soak writes replays to its recorded verdict, as
// cccheck -replay reads it; one whose recorded event index is edited does
// not, and is not blamed on a changed protocol.
func TestDuplicatesWithoutDedupAreCaught(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := cclive("-proto", "tree", "-n", "3", "-problem", "WT-TC", "-runs", "8", "-seed", "5",
		"-no-dedup", "-dup", "0.5", "-max-failures", "0", "-deadline", "5s", "-trace-dir", dir)
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if code != 2 || !strings.Contains(out, "VIOLATES: ") || len(files) == 0 {
		t.Fatalf("no-dedup soak: exit %d with %d traces, stderr %q, stdout:\n%s", code, len(files), errOut, out)
	}
	for _, file := range files {
		tr, proto, prob := loadTrace(t, file)
		if res, err := consensus.ReplayChaosTrace(tr, proto, prob); err != nil || !res.Reproduced {
			t.Errorf("%s does not reproduce: %v", file, err)
		}
	}

	tr, proto, prob := loadTrace(t, files[0])
	var at int
	if _, err := fmt.Sscanf(tr.Violations[0].Detail, "event %d ", &at); err != nil || tr.Violations[0].Kind != "replay" {
		t.Fatalf("%s: first violation %v, want a replay divergence", files[0], tr.Violations[0])
	}
	tr.Violations[0].Detail = strings.Replace(tr.Violations[0].Detail, fmt.Sprintf("event %d ", at), fmt.Sprintf("event %d ", at+1), 1)
	if res, err := consensus.ReplayChaosTrace(tr, proto, prob); err != nil || res.Reproduced {
		t.Errorf("%s with the replay divergence moved to event %d: reproduced %v, err %v; want not reproduced and no error", files[0], at+1, res != nil && res.Reproduced, err)
	}
}

// TestDecisionClaimsAreReplayed: a live run's decision divergence replays
// to its verdict from the decisions its trace carries, and a trace without
// them does not reproduce it.
func TestDecisionClaimsAreReplayed(t *testing.T) {
	proto := consensus.Tree(3)
	prob, err := consensus.ParseProblem("WT-TC")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []consensus.Bit{consensus.One, consensus.One, consensus.One}
	res, err := consensus.Live(context.Background(), proto, inputs, consensus.LiveConfig{Deadline: 30 * time.Second})
	if err != nil || res.Err != nil || !res.Quiescent {
		t.Fatalf("live run: %v, %v, quiescent %v", err, res.Err, res.Quiescent)
	}
	res.Decisions = append([]consensus.Decision(nil), res.Decisions...)
	res.Decisions[0] = consensus.Abort + consensus.Commit - res.Decisions[0]
	conf, err := consensus.LiveConformStream(res, proto, prob)
	if err != nil || conf.OK() || conf.Divergences[0].Kind != "decision" {
		t.Fatalf("flipped decision: %v, divergences %v; want a decision divergence", err, conf.Divergences)
	}
	path, err := writeDivergenceTrace(t.TempDir(), proto, "tree", prob, 1, 0, res, consensus.ChaosRunPlan{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	tr, proto, prob := loadTrace(t, path)
	if got, err := consensus.ReplayChaosTrace(tr, proto, prob); err != nil || !got.Reproduced {
		t.Errorf("the decision divergence does not reproduce: %v", err)
	}
	tr.Decisions = ""
	if got, err := consensus.ReplayChaosTrace(tr, proto, prob); err != nil || got.Reproduced {
		t.Errorf("without its decisions: reproduced %v, err %v; want not reproduced and no error", got != nil && got.Reproduced, err)
	}
}

// TestTracesReplayUnderTheirRule: a soak judged under a decision rule other
// than unanimity writes the rule into its traces, every trace replays to its
// recorded violations under that rule, as cccheck -replay reads it, and a
// replay under unanimity is refused rather than judged DIVERGED.
func TestTracesReplayUnderTheirRule(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := cclive("-proto", "tree", "-n", "3", "-problem", "WT-TC", "-rule", "broadcast-1",
		"-runs", "20", "-seed", "3", "-trace-dir", dir)
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if code != 2 || len(files) == 0 {
		t.Fatalf("exit %d with %d traces, stderr %q; want exit 2 and traces; stdout:\n%s", code, len(files), errOut, out)
	}
	for _, file := range files {
		tr, proto, prob := loadTrace(t, file)
		if _, err := consensus.ReplayChaosTrace(tr, proto, prob); err == nil || tr.Rule != "broadcast-1" {
			t.Errorf("%s records rule %q and replays under unanimity (err %v)", file, tr.Rule, err)
		}
		var err error
		if prob.Rule, err = consensus.ParseRule(tr.Rule); err != nil {
			t.Fatal(err)
		}
		if res, err := consensus.ReplayChaosTrace(tr, proto, prob); err != nil || !res.Reproduced {
			t.Errorf("%s does not reproduce under %s: %v", file, tr.Rule, err)
		}
	}
}

// loadTrace reads a trace file and resolves its protocol and problem, under
// unanimity whatever rule the trace records.
func loadTrace(t *testing.T, file string) (*consensus.ChaosTrace, consensus.Protocol, consensus.Problem) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := consensus.DecodeChaosTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := consensus.ProtocolByName(tr.ProtoArg, tr.N)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := consensus.ParseProblem(tr.Problem)
	if err != nil {
		t.Fatal(err)
	}
	return tr, proto, prob
}
