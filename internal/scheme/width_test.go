package scheme

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/protocols"
	"repro/internal/sim"
)

// initPanic is a protocol whose processor 2 panics at Init on input 1: its
// walks from vectors 001 onwards (the fifth of AllInputs(3)) panic, the
// four before them complete.
type initPanic struct{ sim.Protocol }

func (p initPanic) Init(id sim.ProcID, input sim.Bit, n int) sim.State {
	if id == 2 && input == 1 {
		panic("boom")
	}
	return p.Protocol.Init(id, input, n)
}

// ofPanic returns the value OfContext panicked with, nil if it returned.
func ofPanic(proto sim.Protocol) (v any) {
	defer func() { v = recover() }()
	OfContext(context.Background(), proto, Options{})
	return nil
}

// TestOfIsWidthIndependent is the scheme twin of the checker's
// TestShardedWalkIsWidthIndependent: OfContext runs its input vectors as
// concurrent cells, and at whatever GOMAXPROCS the test runs with (CI runs
// it at 1, 2 and 4 under the race detector) returns what it returns at
// GOMAXPROCS=1, where the cells run in turn on the calling goroutine —
// pattern set, visited, frontier, status and error — including where a
// budget cuts a middle vector, which ends the union there. The small cells
// are also held to refOf, the reference walk one vector after another. A
// vector whose walk panics is re-raised with the protocol's own value.
func TestOfIsWidthIndependent(t *testing.T) {
	hc3, hc4 := protocols.HaltingCommit{Procs: 3}, protocols.HaltingCommit{Procs: 4}
	cases := []struct {
		name  string
		proto sim.Protocol
		opts  Options
		ref   bool
	}{
		{"haltingcommit(3)", hc3, Options{}, true},
		// Vectors 000 and 100 (113 nodes each) fit, 010 (149) does not.
		{"haltingcommit(3)/max140", hc3, Options{MaxNodes: 140}, true},
		{"haltingcommit(4)", hc4, Options{}, false},
		// Vectors 0000 and 1000 (1 706 nodes each) fit, 0100 (4 042) does not.
		{"haltingcommit(4)/max4000", hc4, Options{MaxNodes: 4_000}, false},
		{"perverse", protocols.Perverse{}, Options{}, false},
	}
	width := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(width)
	for _, tc := range cases {
		var want string
		if tc.ref {
			ref, err := refOf(context.Background(), tc.proto, tc.opts)
			want = fmt.Sprintf("%s\nerr=%v", enumDigest(ref), err)
		}
		for _, w := range []int{1, width} {
			runtime.GOMAXPROCS(w)
			en, err := OfContext(context.Background(), tc.proto, tc.opts)
			runtime.GOMAXPROCS(width)
			got := fmt.Sprintf("%s\nerr=%v", enumDigest(en), err)
			if want == "" {
				want = got
			}
			if got != want {
				t.Errorf("%s at GOMAXPROCS=%d:\n%s\nwant:\n%s", tc.name, w, got, want)
			}
		}
	}
	for _, w := range []int{1, width} {
		runtime.GOMAXPROCS(w)
		v := ofPanic(initPanic{hc3})
		runtime.GOMAXPROCS(width)
		if v != "boom" {
			t.Errorf("GOMAXPROCS=%d: Of panicked with %#v, want the protocol's \"boom\"", w, v)
		}
	}
}

// TestOfRunsEveryVectorBeforeAnErredOne: a walk that errs skips only the
// vectors after it, never an earlier one whose cell has not got as far as
// its walk yet. Vector 0's cell is held back until vector 2's walk has
// exceeded the budget and vector 3's cell has started; Of must still union
// vector 0's walk, as it does at GOMAXPROCS=1.
func TestOfRunsEveryVectorBeforeAnErredOne(t *testing.T) {
	proto, opts := protocols.HaltingCommit{Procs: 3}, Options{MaxNodes: 140}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want, err := OfContext(context.Background(), proto, opts)
	wantText := fmt.Sprintf("%s\nerr=%v", enumDigest(want), err)

	runtime.GOMAXPROCS(2)
	release := make(chan struct{})
	vectorHook = func(i int) {
		switch i {
		case 0:
			select {
			case <-release:
			case <-time.After(10 * time.Second):
				t.Error("vector 3's cell never started while vector 0's was held")
			}
		case 3:
			close(release)
		}
	}
	defer func() { vectorHook = nil }()
	got, err := OfContext(context.Background(), proto, opts)
	if gotText := fmt.Sprintf("%s\nerr=%v", enumDigest(got), err); gotText != wantText {
		t.Errorf("with vector 0 held back:\n%s\nwant:\n%s", gotText, wantText)
	}
}
