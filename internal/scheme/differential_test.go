package scheme

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/sim"
)

// enumDigest renders an Enumeration canonically so byte-identity with the
// reference walk is a string comparison.
func enumDigest(en *Enumeration) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "status=%v visited=%d frontier=%d patterns=%d\n",
		en.Status, en.Visited, en.Frontier, en.Set.Len())
	for _, k := range en.Set.Keys() {
		sb.WriteString(k)
		sb.WriteByte('\n')
	}
	return sb.String()
}

type enumDiffCase struct {
	name  string
	proto sim.Protocol
	opts  Options
}

func enumDiffCases() []enumDiffCase {
	return []enumDiffCase{
		{"tree", protocols.Tree{Procs: 3}, Options{}},
		{"star", protocols.Star{Procs: 3}, Options{}},
		{"chain", protocols.Chain{Procs: 3}, Options{}},
		{"perverse", protocols.Perverse{}, Options{}},
		{"ackcommit", protocols.AckCommit{Procs: 3}, Options{}},
		// Full exchange is the densest failure-free space (127 nodes); a
		// mid-space budget exercises the deterministic exhaustion stop, so
		// the budget-exhausted partial is part of the differential matrix.
		{"fullexchange", protocols.FullExchange{Procs: 3}, Options{MaxNodes: 60}},
		{"haltingcommit", protocols.HaltingCommit{Procs: 3}, Options{}},
	}
}

// enumDiffCasesLong are the largest spaces the differential suite walks,
// skipped under -short: haltingcommit(4) is the benchmark's scheme cell
// (54 322 nodes over its 16 input vectors, ~7 s for the reference walks).
func enumDiffCasesLong() []enumDiffCase {
	return []enumDiffCase{{"haltingcommit(4)", protocols.HaltingCommit{Procs: 4}, Options{}}}
}

// diffReference enumerates on the enumerator and on the reference walk
// (refEnumerate) and asserts the enumerator reproduces the reference byte
// for byte: the pattern set, visited count, frontier, status, and error.
func diffReference(ctx context.Context, t *testing.T, proto sim.Protocol, opts Options) *Enumeration {
	t.Helper()
	inputs := make([]sim.Bit, proto.N())
	for i := range inputs {
		inputs[i] = sim.One
	}
	ref, refErr := refEnumerate(ctx, proto, inputs, opts)
	en, err := EnumerateContext(ctx, proto, inputs, opts)
	if ref == nil || en == nil {
		t.Fatalf("nil enumeration: enumerator %v (err=%v), reference %v (err=%v)", en, err, ref, refErr)
	}
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Errorf("err = %v, reference err = %v", err, refErr)
	}
	if want, got := enumDigest(ref), enumDigest(en); got != want {
		t.Errorf("enumeration diverges from the reference walk\nreference:\n%s\nenumerator:\n%s", want, got)
	}
	return en
}

// TestEnumerateDifferential asserts that enumerating every library
// protocol's failure-free executions (all-ones inputs) yields the reference
// walk's Enumeration byte for byte: the pattern set, visited count,
// frontier, and status. Of is held to the reference's Of the same way,
// over every input vector, so one enumerator's walks stay independent of
// the ones before them.
func TestEnumerateDifferential(t *testing.T) {
	cases := enumDiffCases()
	if !testing.Short() {
		cases = append(cases, enumDiffCasesLong()...)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { diffReference(context.Background(), t, tc.proto, tc.opts) })
		t.Run(tc.name+"/Of", func(t *testing.T) {
			if testing.Short() && tc.proto.N() > 3 {
				t.Skip("the reference walks of 16 input vectors take seconds")
			}
			ref, refErr := refOf(context.Background(), tc.proto, tc.opts)
			en, err := OfContext(context.Background(), tc.proto, tc.opts)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Errorf("err = %v, reference err = %v", err, refErr)
			}
			if want, got := enumDigest(ref), enumDigest(en); got != want {
				t.Errorf("Of diverges from the reference Of\nreference:\n%s\nenumerator:\n%s", want, got)
			}
		})
	}
	if !testing.Short() {
		// The deepest tree, on all-ones inputs only (its 128 input
		// vectors add little).
		t.Run("tree(7)", func(t *testing.T) { diffReference(context.Background(), t, protocols.Tree{Procs: 7}, Options{}) })
	}
}

// TestEnumerateDifferentialCancelled asserts a cancelled context cuts the
// enumerator's walk where it cuts the reference's, at the first dequeue: the
// same partial Enumeration (status, visited, frontier).
func TestEnumerateDifferentialCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	en := diffReference(ctx, t, protocols.Tree{Procs: 3}, Options{})
	if en.Status != StatusInterrupted || en.Visited < 1 || en.Frontier < 1 {
		t.Fatalf("cancelled enumeration: status %v, %d visited, %d frontier; want interrupted with its partial snapshot",
			en.Status, en.Visited, en.Frontier)
	}
}

// TestEnumerateIndexWidthGrows holds the enumerator to the reference walk on
// a protocol that sends more messages than one bitset word has bits, and
// checks that the index space did outgrow the first word: nodes built at
// the narrower width must read their missing high words as empty.
func TestEnumerateIndexWidthGrows(t *testing.T) {
	proto := relayProto{}
	diffReference(context.Background(), t, proto, Options{})
	e := newEnumerator(proto)
	en, err := e.enumerate(context.Background(), allOnes(proto.N()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.ids) <= 64 || e.words < 2 {
		t.Fatalf("relay interned %d messages (%d words), want more than one word's worth", len(e.ids), e.words)
	}
	// The aside message reaches p0 while it waits for token 62, 64 or 66
	// (or after 66, which leaves the pattern of 66: p0 sends nothing
	// more), and is in the past of every token p0 sends after it.
	if want := (relayHops - relayWake) / 2; en.Set.Len() != want {
		t.Fatalf("relay has %d patterns, want %d", en.Set.Len(), want)
	}
}

// relayHops is how many token messages relayProto passes; with the wake
// and aside messages that is more than 64, so the index space needs two
// words.
const (
	relayHops = 66
	relayWake = 60
)

// relayProto passes a token back and forth between p0 and p1, relayHops
// messages in all. When token relayWake reaches p0, p0 first wakes p2,
// which sends p0 one aside message that may arrive at any later point of
// the relay.
type relayProto struct{}

type relayState struct {
	id sim.ProcID
	// last is the number of the last token this processor sent or
	// received; sending is set while it has something to send. woke marks
	// p0's wake sent and p2's aside sent; aside marks p0 holding it.
	last    int
	sending bool
	woke    bool
	aside   bool
}

func (s relayState) Kind() sim.StateKind {
	switch {
	case s.sending:
		return sim.Sending
	case s.id == 2 && s.woke:
		return sim.Halted
	default:
		return sim.Receiving
	}
}
func (relayState) Decided() (sim.Decision, bool) { return sim.NoDecision, false }
func (relayState) Amnesic() bool                 { return false }
func (s relayState) Key() string {
	return fmt.Sprintf("relay{%d,%d,%v,%v,%v}", s.id, s.last, s.sending, s.woke, s.aside)
}

// relayPayload numbers a token; the wake and aside messages are -1 and 0.
type relayPayload int

func (p relayPayload) Key() string { return fmt.Sprintf("tok%d", int(p)) }

func (relayProto) Name() string { return "relay" }
func (relayProto) N() int       { return 3 }
func (relayProto) Init(p sim.ProcID, _ sim.Bit, _ int) sim.State {
	return relayState{id: p, sending: p == 0}
}
func (relayProto) Receive(_ sim.ProcID, s sim.State, m sim.Message) sim.State {
	st := s.(relayState)
	switch k := int(m.Payload.(relayPayload)); k {
	case -1:
		st.sending = true
	case 0:
		st.aside = true
	default:
		st.last, st.sending = k, k < relayHops
	}
	return st
}
func (relayProto) SendStep(p sim.ProcID, s sim.State) (sim.State, []sim.Envelope) {
	st := s.(relayState)
	switch {
	case p == 2:
		st.sending, st.woke = false, true
		return st, []sim.Envelope{{To: 0, Payload: relayPayload(0)}}
	case p == 0 && st.last == relayWake && !st.woke:
		st.woke = true
		return st, []sim.Envelope{{To: 2, Payload: relayPayload(-1)}}
	}
	st.sending = false
	st.last++
	return st, []sim.Envelope{{To: 1 - p, Payload: relayPayload(st.last)}}
}
