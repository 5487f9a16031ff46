package frontier

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternerCollapsesEqualStrings(t *testing.T) {
	in := NewInterner()
	const workers = 8
	var wg sync.WaitGroup
	out := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Distinct backing arrays with equal content.
			out[w] = in.Intern(string([]byte{'k', 'e', 'y', byte('0')}))
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if out[w] != out[0] {
			t.Fatalf("interner returned unequal strings: %q vs %q", out[0], out[w])
		}
	}
}

func TestShardedMapCommutativeUpdates(t *testing.T) {
	m := NewShardedMap[int]()
	const workers, keys = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				m.Update(fmt.Sprintf("k%d", i), func(v int) int { return v + 1 })
			}
		}()
	}
	wg.Wait()
	if m.Len() != keys {
		t.Fatalf("len = %d, want %d", m.Len(), keys)
	}
	snap := m.Snapshot()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		if snap[k] != workers {
			t.Fatalf("snapshot[%s] = %d, want %d", k, snap[k], workers)
		}
		if v, ok := m.Get(k); !ok || v != workers {
			t.Fatalf("Get(%s) = %d,%v, want %d,true", k, v, ok, workers)
		}
	}
}
