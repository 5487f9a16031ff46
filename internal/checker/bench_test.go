package checker

import (
	"testing"

	"repro/internal/frontier"
	"repro/internal/protocols"
)

// BenchmarkExploreDedup pits the three visited-set engines against each
// other on the standard tree(N=3) two-failure space. It is the profiling
// entry point for the explorer:
//
//	go test -run '^$' -bench ExploreDedup -cpuprofile cpu.prof ./internal/checker
//
// End-to-end numbers and the regression gate are the layered benchmark's
// (go run ./bench -workload explore-plain, go run ./bench -compare a b).
func BenchmarkExploreDedup(b *testing.B) {
	for _, dedup := range []frontier.Dedup{frontier.DedupStrings, frontier.DedupVerified, frontier.DedupFingerprint} {
		dedup := dedup
		b.Run(dedup.String(), func(b *testing.B) {
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				x, err := Explore(protocols.Tree{Procs: 3}, Options{MaxFailures: 2, Dedup: dedup})
				if err != nil {
					b.Fatal(err)
				}
				nodes = x.NodeCount
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}
