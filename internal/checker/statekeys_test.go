package checker

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
)

// TestStateKeysGolden pins the Key of every accessible local state of E7's
// five rows, of tree, chain and star(3) with two failures, and of every
// other library protocol (2pc, broadcast, threshold, haltingcommit and the
// ST variants of tree and chain) at N=3 with two failures: a state's key
// names it in StateInfo.Key, in every Conc set and in the safe-state
// report, so rewriting how a protocol builds its keys must not change one
// byte of them. Each line of the golden is one walk: its state count and
// the sha256 of the keys, one per line in order of first admission, each
// read off its state's Sample. The walks are dead-letter elided, which
// keeps the census exact. Regenerate an intended change with
// `go test ./internal/checker -run StateKeysGolden -update`.
func TestStateKeysGolden(t *testing.T) {
	cells := []struct {
		proto   sim.Protocol
		maxFail int
	}{
		{protocols.Tree{Procs: 3}, 2},
		{protocols.AckCommit{Procs: 3}, 2},
		{protocols.Perverse{}, 0},
		{protocols.Star{Procs: 3}, 2},
		{protocols.FullExchange{Procs: 3}, 1},
		{protocols.Chain{Procs: 3}, 2},
		{protocols.TwoPhaseCommit{Procs: 3}, 2},
		{protocols.Broadcast{Procs: 3}, 2},
		{protocols.ThresholdCommit{Procs: 3, K: 2}, 2},
		{protocols.HaltingCommit{Procs: 3}, 2},
		{protocols.Tree{Procs: 3, ST: true}, 2},
		{protocols.Chain{Procs: 3, ST: true}, 2},
	}
	if testing.Short() {
		cells = cells[:4]
	}
	var got strings.Builder
	for _, c := range cells {
		x, err := Explore(c.proto, Options{MaxFailures: c.maxFail, Reduction: ReduceElide})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, key := range x.stateKeys {
			fmt.Fprintf(h, "%s\n", x.States[key].Sample.Key())
		}
		fmt.Fprintf(&got, "%s/mf%d states=%d %x\n", c.proto.Name(), c.maxFail, len(x.stateKeys), h.Sum(nil))
	}

	path := filepath.Join("testdata", "state_keys.golden")
	if *update {
		if testing.Short() {
			t.Fatal("-update needs the full walk list; run without -short")
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !strings.HasPrefix(string(want), got.String()) {
		t.Errorf("state keys diverged from %s:\n%s", path, firstDiff(string(want), got.String()))
	}
}
