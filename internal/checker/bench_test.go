package checker

import (
	"testing"

	"repro/internal/protocols"
)

// BenchmarkExplore walks the standard tree(N=3) two-failure space. It is
// the profiling entry point for the explorer:
//
//	go test -run '^$' -bench 'Explore$' -cpuprofile cpu.prof ./internal/checker
//
// End-to-end numbers and the regression gate are the layered benchmark's
// (go run ./bench -workload explore-plain, go run ./bench -compare a b).
func BenchmarkExplore(b *testing.B) {
	b.ReportAllocs()
	var nodes int
	for i := 0; i < b.N; i++ {
		x, err := Explore(protocols.Tree{Procs: 3}, Options{MaxFailures: 2})
		if err != nil {
			b.Fatal(err)
		}
		nodes = x.NodeCount
	}
	b.ReportMetric(float64(nodes), "nodes")
}
