// Package cells runs independent cells — whole explorations whose results
// do not depend on one another, such as the rows of an experiment —
// concurrently, and leaves their results where the caller put them, by
// index. Each cell is still one sequential, deterministic computation, so
// a result is the same whichever worker computed it and whenever: the
// order results are read in is the caller's, never the schedule's.
package cells

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// Run calls do(i) for every i in [0, len(costs)) on up to GOMAXPROCS
// goroutines and returns once every call has returned. Cells are started in
// decreasing cost, ties in index order, so the largest start first and the
// small ones fill in behind them; do(i) must write only what belongs to
// cell i. If a cell panics, no further cell starts, and once every worker
// has joined Run panics on the calling goroutine with a *Panic for the
// lowest-indexed cell that panicked.
func Run(costs []int, do func(i int)) {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return costs[b] - costs[a] })

	var (
		next    atomic.Int64
		failed  atomic.Bool
		panics  = make([]*Panic, len(costs))
		wg      sync.WaitGroup
		workers = min(runtime.GOMAXPROCS(0), len(order))
	)
	work := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				panics[i] = &Panic{Cell: i, Value: v, Stack: debug.Stack()}
				failed.Store(true)
			}
		}()
		do(i)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				work(order[k])
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// Panic is what Run re-raises when a cell panics: the cell, its panic
// value, and the stack of the goroutine it panicked on.
type Panic struct {
	Cell  int
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("cell %d panicked: %v\n\n%s", p.Cell, p.Value, p.Stack)
}
