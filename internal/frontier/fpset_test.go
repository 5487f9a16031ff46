package frontier

import (
	"strconv"
	"sync"
	"testing"

	"repro/internal/fingerprint"
)

func TestFPVisitedSet(t *testing.T) {
	v := NewFPVisitedSet()
	d1, d2 := fingerprint.OfString("a"), fingerprint.OfString("b")
	if v.Seen(d1) {
		t.Fatal("empty set claims to have seen a digest")
	}
	if !v.Add(d1) {
		t.Fatal("first Add reported not-new")
	}
	if v.Add(d1) {
		t.Fatal("second Add reported new")
	}
	if !v.Seen(d1) || v.Seen(d2) {
		t.Fatal("Seen disagrees with Add history")
	}
	if v.Len() != 1 {
		t.Fatalf("Len = %d, want 1", v.Len())
	}
}

func TestFPVisitedSetConcurrent(t *testing.T) {
	v := NewFPVisitedSet()
	var wg sync.WaitGroup
	var added [8]int
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if v.Add(fingerprint.OfUint64(uint64(i))) {
					added[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range added {
		total += n
	}
	if total != 2000 || v.Len() != 2000 {
		t.Fatalf("winners = %d, Len = %d, want 2000/2000", total, v.Len())
	}
}

func toyFP(id uint64) fingerprint.Digest {
	return fingerprint.OfString("toy:" + strconv.FormatUint(id, 10))
}

// TestOwnerTotalStableAndBounded pins the shard function's basic algebra:
// assignments land in [0, workers), depend only on the digest, and cover
// the extremes of the high-64-bit space correctly.
func TestOwnerTotalStableAndBounded(t *testing.T) {
	digests := make([]fingerprint.Digest, 0, 512)
	for i := 0; i < 512; i++ {
		digests = append(digests, toyFP(uint64(i)))
	}
	for _, workers := range []int{1, 2, 3, 7, 8, 16, 64} {
		for _, d := range digests {
			o := Owner(d, workers)
			if o < 0 || o >= workers {
				t.Fatalf("Owner(%v, %d) = %d out of range", d, workers, o)
			}
			if again := Owner(d, workers); again != o {
				t.Fatalf("Owner(%v, %d) unstable: %d then %d", d, workers, o, again)
			}
		}
		lo := fingerprint.Digest{Hi: 0, Lo: ^uint64(0)}
		hi := fingerprint.Digest{Hi: ^uint64(0), Lo: 0}
		if o := Owner(lo, workers); o != 0 {
			t.Fatalf("lowest digest maps to shard %d of %d, want 0", o, workers)
		}
		if o := Owner(hi, workers); o != workers-1 {
			t.Fatalf("highest digest maps to shard %d of %d, want %d", o, workers, workers-1)
		}
	}
	if o := Owner(toyFP(1), 0); o != 0 {
		t.Fatalf("Owner with 0 workers = %d, want 0", o)
	}
}
