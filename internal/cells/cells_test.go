package cells

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunPlacesResultsByIndex: every cell runs once and its result lands at
// its index; on one worker the cells start largest first, ties in index
// order.
func TestRunPlacesResultsByIndex(t *testing.T) {
	costs := []int{3, 9, 1, 9, 0, 5}
	out := make([]int, len(costs))
	Run(costs, func(i int) { out[i] = 10 * costs[i] })
	for i, c := range costs {
		if out[i] != 10*c {
			t.Errorf("cell %d: result %d, want %d", i, out[i], 10*c)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var started []int
	Run(costs, func(i int) { started = append(started, i) })
	if want := []int{1, 3, 5, 0, 2, 4}; !slices.Equal(started, want) {
		t.Errorf("one worker started cells %v, want %v", started, want)
	}
	Run(nil, func(int) { t.Error("a cell ran with no cells") })
}

// TestRunRepanicsAfterJoin: a cell's panic comes back on the calling
// goroutine as a *Panic naming the cell and its value, and only once the
// cell running beside it on the other worker has returned.
func TestRunRepanicsAfterJoin(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	panicking := make(chan struct{})
	var returned atomic.Bool
	defer func() {
		p, ok := recover().(*Panic)
		if !ok || p.Cell != 0 || p.Value != "boom" || len(p.Stack) == 0 {
			t.Fatalf("Run panicked with %#v, want cell 0's \"boom\" with its stack", p)
		}
		if !returned.Load() {
			t.Error("Run re-panicked before the other worker's cell returned")
		}
	}()
	// Cell 1, the larger, starts first; cell 0 starts on the second worker
	// and panics while cell 1 is still running.
	Run([]int{1, 2}, func(i int) {
		if i == 0 {
			close(panicking)
			panic("boom")
		}
		<-panicking
		time.Sleep(20 * time.Millisecond)
		returned.Store(true)
	})
	t.Fatal("Run returned normally after a cell panicked")
}
