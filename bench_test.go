// Benchmarks: one per experiment row of EXPERIMENTS.md (E1–E9), so every
// figure and quantitative claim of the paper has a `go test -bench` target
// that regenerates it. Custom metrics report the paper-relevant quantities
// (messages per run, patterns per scheme, steps per processor) alongside
// wall-clock time.
package consensus_test

import (
	"fmt"
	"testing"

	consensus "repro"
)

func ones(n int) []consensus.Bit {
	v := make([]consensus.Bit, n)
	for i := range v {
		v[i] = consensus.One
	}
	return v
}

// BenchmarkFigure1Tree regenerates E1: a failure-free commit run of the
// seven-processor tree protocol and its communication pattern.
func BenchmarkFigure1Tree(b *testing.B) {
	proto := consensus.Tree(7)
	inputs := ones(7)
	var msgs int
	for i := 0; i < b.N; i++ {
		run, err := consensus.Run(proto, inputs, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		pat := consensus.PatternOf(run)
		msgs = pat.Size()
	}
	b.ReportMetric(float64(msgs), "messages/run")
}

// BenchmarkFigure1TreeScheme regenerates E1's scheme enumeration: every
// failure-free delivery order of the tree protocol from all-ones inputs.
func BenchmarkFigure1TreeScheme(b *testing.B) {
	proto := consensus.Tree(7)
	inputs := ones(7)
	var patterns int
	for i := 0; i < b.N; i++ {
		set, err := consensus.EnumeratePatterns(proto, inputs, consensus.SchemeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		patterns = set.Len()
	}
	b.ReportMetric(float64(patterns), "patterns")
}

// BenchmarkFigure2Star regenerates E2: a failure-free run of the halting
// star protocol, whose relays make it O(N²) messages.
func BenchmarkFigure2Star(b *testing.B) {
	for _, n := range []int{3, 5, 7, 9} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			proto := consensus.Star(n)
			inputs := ones(n)
			var msgs int
			for i := 0; i < b.N; i++ {
				run, err := consensus.Run(proto, inputs, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				msgs = run.MessagesSent()
			}
			b.ReportMetric(float64(msgs), "messages/run")
		})
	}
}

// BenchmarkFigure3Chain regenerates E3: the chain protocol's unique
// failure-free pattern.
func BenchmarkFigure3Chain(b *testing.B) {
	proto := consensus.Chain(4)
	var patterns int
	for i := 0; i < b.N; i++ {
		set, err := consensus.SchemeOf(proto, consensus.SchemeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		patterns = set.Len()
	}
	b.ReportMetric(float64(patterns), "patterns")
}

// BenchmarkFigure4Perverse regenerates E4: the four failure-free patterns of
// the perverse protocol.
func BenchmarkFigure4Perverse(b *testing.B) {
	proto := consensus.Perverse()
	inputs := ones(4)
	var patterns int
	for i := 0; i < b.N; i++ {
		set, err := consensus.EnumeratePatterns(proto, inputs, consensus.SchemeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		patterns = set.Len()
	}
	b.ReportMetric(float64(patterns), "patterns")
}

// BenchmarkLattice regenerates E5's derivation: the six-problem relation
// from the base facts.
func BenchmarkLattice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := consensus.BuildLattice()
		if l.Relation(
			consensus.UnanimityProblem(consensus.HT, consensus.IC),
			consensus.UnanimityProblem(consensus.WT, consensus.TC),
		).String() != "incomparable" {
			b.Fatal("wrong relation")
		}
	}
}

// BenchmarkLatticeWitnesses regenerates E5's quick witnesses: the scenario
// replays and scheme facts behind the diagram.
func BenchmarkLatticeWitnesses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evidence := consensus.Witnesses(consensus.WitnessOptions{})
		for _, ev := range evidence {
			if !ev.OK {
				b.Fatalf("witness failed: %s", ev.Name)
			}
		}
	}
}

// BenchmarkTerminationProtocol regenerates E6: the Appendix protocol's
// O(N²) per-processor step bound, swept over N.
func BenchmarkTerminationProtocol(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			proto := consensus.TerminationProtocol(n)
			inputs := make([]consensus.Bit, n)
			inputs[0] = consensus.One // one committable bias spreads
			maxSteps := 0
			for i := 0; i < b.N; i++ {
				run, err := consensus.Run(proto, inputs, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				for p := 0; p < n; p++ {
					if s := run.StepsOf(consensus.ProcID(p)); s > maxSteps {
						maxSteps = s
					}
				}
			}
			b.ReportMetric(float64(maxSteps), "max-steps/proc")
			b.ReportMetric(float64(2*n*(n-1)+n), "bound")
		})
	}
}

// BenchmarkSafeStates regenerates E7: the Theorem 2 analysis over the tree
// protocol's reachable states.
func BenchmarkSafeStates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		x, err := consensus.Explore(consensus.Tree(3), consensus.CheckOptions{MaxFailures: 1})
		if err != nil {
			b.Fatal(err)
		}
		rep := x.Safety()
		if !rep.AllSafe() {
			b.Fatal("tree should be safe")
		}
	}
}

// BenchmarkExhaustiveCheck measures the model checker itself: ack-commit
// against WT-TC with one injected failure.
func BenchmarkExhaustiveCheck(b *testing.B) {
	problem := consensus.UnanimityProblem(consensus.WT, consensus.TC)
	var nodes int
	for i := 0; i < b.N; i++ {
		x, err := consensus.Check(consensus.AckCommit(3), problem, consensus.CheckOptions{MaxFailures: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !x.Conforms() {
			b.Fatal("ackcommit should conform")
		}
		nodes = x.NodeCount
	}
	b.ReportMetric(float64(nodes), "configs")
}

// BenchmarkMessageComplexity regenerates E8: failure-free message counts
// across the protocol library and sizes.
func BenchmarkMessageComplexity(b *testing.B) {
	protos := []struct {
		name string
		mk   func(int) consensus.Protocol
	}{
		{"chain", consensus.Chain},
		{"ackcommit", consensus.AckCommit},
		{"star", consensus.Star},
		{"haltingcommit", consensus.HaltingCommit},
		{"fullexchange", consensus.FullExchange},
	}
	for _, pc := range protos {
		for _, n := range []int{3, 6, 9} {
			pc, n := pc, n
			b.Run(fmt.Sprintf("%s/N=%d", pc.name, n), func(b *testing.B) {
				proto := pc.mk(n)
				inputs := ones(n)
				var msgs int
				for i := 0; i < b.N; i++ {
					run, err := consensus.Run(proto, inputs, int64(i))
					if err != nil {
						b.Fatal(err)
					}
					msgs = run.MessagesSent()
				}
				b.ReportMetric(float64(msgs), "messages/run")
			})
		}
	}
}

// BenchmarkTransforms regenerates E9: the cost of the Section 3
// transformations relative to the raw protocol.
func BenchmarkTransforms(b *testing.B) {
	inner := consensus.Chain(4)
	cases := []struct {
		name  string
		proto consensus.Protocol
	}{
		{"raw", inner},
		{"totalcomm", consensus.TotalComm(inner)},
		{"ebarfree", consensus.EliminateEBar(inner)},
	}
	inputs := ones(4)
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := consensus.Run(c.proto, inputs, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPatternExtraction measures pattern construction on a large run
// (the N=8 termination protocol sends hundreds of messages).
func BenchmarkPatternExtraction(b *testing.B) {
	run, err := consensus.Run(consensus.TerminationProtocol(8), ones(8), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		pat := consensus.PatternOf(run)
		size = pat.Size()
	}
	b.ReportMetric(float64(size), "messages")
}

// BenchmarkSchemeEnumeration measures exhaustive failure-free enumeration
// across the witness protocols.
func BenchmarkSchemeEnumeration(b *testing.B) {
	cases := []struct {
		name  string
		proto consensus.Protocol
	}{
		{"tree3", consensus.Tree(3)},
		{"chain4", consensus.Chain(4)},
		{"perverse", consensus.Perverse()},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := consensus.SchemeOf(c.proto, consensus.SchemeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
