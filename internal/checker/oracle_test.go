package checker

import (
	"context"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// loopProto is a two-processor ping-pong that returns to its initial
// configuration: p0 sends x from A and waits in B, p1 answers ack from S and
// is back in I, the ack puts p0 back in A. A failure notice sends the
// survivor down five silent sending steps to a halted undecided state — a WT
// violation that lies deeper than the four-step cycle, so breadth-first
// order walks the back-edge into the root before it reports anything.
type loopProto struct{}

// loopState is a loopProto state, and (a payload needs only a Key) message.
type loopState struct {
	name string
	kind sim.StateKind
}

func (s loopState) Kind() sim.StateKind           { return s.kind }
func (s loopState) Decided() (sim.Decision, bool) { return sim.NoDecision, false }
func (s loopState) Amnesic() bool                 { return false }
func (s loopState) Key() string                   { return s.name }

func (loopProto) Name() string { return "loop" }
func (loopProto) N() int       { return 2 }
func (loopProto) Init(p sim.ProcID, _ sim.Bit, _ int) sim.State {
	return [...]loopState{{"A", sim.Sending}, {"I", sim.Receiving}}[p]
}
func (loopProto) Receive(p sim.ProcID, _ sim.State, m sim.Message) sim.State {
	if m.Notice {
		return loopState{"D5", sim.Sending}
	}
	return [...]loopState{{"A", sim.Sending}, {"S", sim.Sending}}[p]
}
func (loopProto) SendStep(_ sim.ProcID, s sim.State) (sim.State, []sim.Envelope) {
	switch name := s.Key(); name {
	case "A":
		return loopState{"B", sim.Receiving}, []sim.Envelope{{To: 1, Payload: loopState{name: "x"}}}
	case "S":
		return loopState{"I", sim.Receiving}, []sim.Envelope{{To: 0, Payload: loopState{name: "ack"}}}
	case "D1":
		return loopState{"H", sim.Halted}, nil
	default: // D5 … D2
		return loopState{"D" + string(name[1]-1), sim.Sending}, nil
	}
}

// TestTrackTracesWhenARunRevisitsItsRoot: a root reached again by a
// back-edge must stay a root. When it took a parent link like any other
// successor, the links closed a cycle and building the first violation's
// trace never returned (this test then ends by the -timeout).
func TestTrackTracesWhenARunRevisitsItsRoot(t *testing.T) {
	tc := diffCase{"loop-mf1", loopProto{}, Options{MaxFailures: 1, Inputs: [][]sim.Bit{{sim.One, sim.One}}}}
	x := diffReference(context.Background(), t, tc, problem(taxonomy.WT, taxonomy.TC))
	if x.NodeCount != 56 || len(x.Violations) != 7 {
		t.Fatalf("%d nodes, %d violations; want 56 and 7", x.NodeCount, len(x.Violations))
	}
	if x.FirstInputs == nil || len(x.FirstTrace) >= x.NodeCount {
		t.Fatalf("FirstTrace has %d events over %d nodes from inputs %v; want a simple path from the initial configuration",
			len(x.FirstTrace), x.NodeCount, x.FirstInputs)
	}
}

// lyingProto wraps a protocol so that its states implement sim.Digester
// dishonestly: the states keyed a and b report one digest.
type lyingProto struct {
	sim.Protocol
	a, b string
}

type lyingState struct {
	sim.State
	digest fingerprint.Digest
}

func (s lyingState) Digest() fingerprint.Digest { return s.digest }

func (l lyingProto) wrap(s sim.State) sim.State {
	key := s.Key()
	if key == l.b {
		key = l.a
	}
	return lyingState{s, fingerprint.OfString(key)}
}

func (l lyingProto) Init(p sim.ProcID, input sim.Bit, n int) sim.State {
	return l.wrap(l.Protocol.Init(p, input, n))
}
func (l lyingProto) Receive(p sim.ProcID, s sim.State, m sim.Message) sim.State {
	return l.wrap(l.Protocol.Receive(p, s.(lyingState).State, m))
}
func (l lyingProto) SendStep(p sim.ProcID, s sim.State) (sim.State, []sim.Envelope) {
	next, envs := l.Protocol.SendStep(p, s.(lyingState).State)
	return l.wrap(next), envs
}

// TestDifferentialCatchesADishonestDigest is the oracle's teeth: with two
// of p1's states — its initial one and the first it moves to — reporting one
// digest, the engine merges configurations the reference keeps apart, and
// the differential must say so. (The reference reads no digest, so the lie
// does not reach it: it walks the honest space.)
func TestDifferentialCatchesADishonestDigest(t *testing.T) {
	tc := diffCase{"tree-mf1-ones", protocols.Tree{Procs: 3}, Options{MaxFailures: 1, Inputs: [][]sim.Bit{{sim.One, sim.One, sim.One}}}}
	prob := problem(taxonomy.WT, taxonomy.TC)
	_, honest, diff := divergence(context.Background(), tc, prob)
	if diff != "" {
		t.Fatal(diff)
	}
	p1State := func(i int) string { return honest.x.stateKeys[honest.log[i].StateIdx[1]] }
	a := p1State(0)
	b := a
	for i := 0; b == a; i++ {
		b = p1State(i)
	}
	tc.proto = lyingProto{tc.proto, a, b}
	engine, ref, diff := divergence(context.Background(), tc, prob)
	if ref.digest() != honest.digest() {
		t.Fatalf("the lie reached the reference walk:\n%s", firstDiff(honest.digest(), ref.digest()))
	}
	if diff == "" || engine.x.NodeCount >= ref.x.NodeCount {
		t.Fatalf("engine walked %d nodes, reference %d, differential reported %q; want fewer nodes and a reported divergence",
			engine.x.NodeCount, ref.x.NodeCount, diff)
	}
}
