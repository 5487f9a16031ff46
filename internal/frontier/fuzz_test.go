package frontier

import (
	"strconv"
	"testing"

	"repro/internal/fingerprint"
)

// FuzzShardRouting fuzzes the owner assignment over an arbitrary digest
// population and shard count: it is total (in [0, workers)), stable (a pure
// function of the digest), and balanced — no shard receives more than 2x
// its uniform share of a large digest sample.
func FuzzShardRouting(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0x00, 0x01, 0x02, 0x03}, uint8(2))
	f.Add([]byte("route me through every shard"), uint8(8))
	f.Add([]byte{0xff, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01, 0x00, 0xaa, 0x55}, uint8(16))
	f.Fuzz(func(t *testing.T, seed []byte, width uint8) {
		workers := int(width%16) + 1
		counts := make([]int, workers)
		const sample = 4096
		for i := 0; i < sample; i++ {
			d := fingerprint.OfString(string(seed) + "#" + strconv.Itoa(i))
			o := Owner(d, workers)
			if o < 0 || o >= workers {
				t.Fatalf("Owner(%v, %d) = %d out of range", d, workers, o)
			}
			if again := Owner(d, workers); again != o {
				t.Fatalf("Owner(%v, %d) unstable: %d then %d", d, workers, o, again)
			}
			counts[o]++
		}
		limit := 2 * sample / workers
		for o, c := range counts {
			if c > limit {
				t.Fatalf("shard %d of %d holds %d of %d digests, above the 2x-uniform bound %d",
					o, workers, c, sample, limit)
			}
		}
	})
}
