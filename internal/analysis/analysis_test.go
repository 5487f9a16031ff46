package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// stdImporter type-checks standard-library imports from source. It is shared
// across tests because parsing the stdlib is the expensive part.
var stdImporter = importer.ForCompiler(token.NewFileSet(), "source", nil)

// vetFixture type-checks one in-memory source file as a module package and
// runs a single analyzer over it, ignore comments applied — the same path the
// ccvet driver takes per package.
func vetFixture(t *testing.T, a *Analyzer, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := NewInfo()
	conf := types.Config{Importer: stdImporter}
	pkg, err := conf.Check("repro/fixture", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return RunAnalyzer(a, fset, []*ast.File{f}, pkg, info, "repro")
}

// wantFindings asserts the exact number of findings and that each message
// contains the fragment.
func wantFindings(t *testing.T, got []Finding, n int, fragment string) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), n, renderFindings(got))
	}
	for _, f := range got {
		if !strings.Contains(f.Message, fragment) {
			t.Errorf("finding %q does not mention %q", f, fragment)
		}
	}
}

func renderFindings(fs []Finding) string {
	var sb strings.Builder
	for _, f := range fs {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---- purity ----

// The fixtures declare their own ProcID/Envelope/protocol trio: the analyzers
// match sim.Protocol implementations by shape, not by import.
const purityHeader = `package fixture

type ProcID int

type State struct{ m map[string]int }

type Proto struct{}

func (Proto) Init(p ProcID, input int, n int) State { return State{m: map[string]int{}} }
func (Proto) SendStep(p ProcID, s State) (State, []int) { return s, nil }
`

func TestPurityFlagsArgumentMutation(t *testing.T) {
	src := purityHeader + `
func (Proto) Receive(p ProcID, s State, m int) State {
	s.m["k"] = m // writes into the caller's map
	return s
}
`
	got := vetFixture(t, PurityAnalyzer, src)
	wantFindings(t, got, 1, "mutates state reachable from the argument")
	if got[0].Analyzer != "purity" {
		t.Errorf("analyzer = %q, want purity", got[0].Analyzer)
	}
	if !strings.Contains(got[0].String(), "fixture.go:") || !strings.Contains(got[0].String(), "[purity]") {
		t.Errorf("finding format %q, want file:line: [purity] message", got[0].String())
	}
}

func TestPurityFlagsPackageVariable(t *testing.T) {
	src := purityHeader + `
var calls int

func (Proto) Receive(p ProcID, s State, m int) State {
	calls++
	return s
}
`
	got := vetFixture(t, PurityAnalyzer, src)
	wantFindings(t, got, 1, "package-level mutable variable")
}

func TestPurityFlagsAppendToSharedSlice(t *testing.T) {
	src := `package fixture

type ProcID int

type State struct{ log []int }

type Proto struct{}

func (Proto) Init(p ProcID, input int, n int) State { return State{} }
func (Proto) SendStep(p ProcID, s State) (State, []int) { return s, nil }

func (Proto) Receive(p ProcID, s State, m int) State {
	s.log = append(s.log, m) // may write into shared backing array
	return s
}
`
	got := vetFixture(t, PurityAnalyzer, src)
	wantFindings(t, got, 1, "backing array shared with the caller")
}

func TestPurityAcceptsCopyOnWrite(t *testing.T) {
	src := purityHeader + `
func (s State) clone() State {
	m := make(map[string]int, len(s.m))
	for k, v := range s.m {
		m[k] = v
	}
	return State{m: m}
}

func (Proto) Receive(p ProcID, s State, m int) State {
	s = s.clone()
	s.m["k"] = m // fresh copy: pure
	return s
}
`
	wantFindings(t, vetFixture(t, PurityAnalyzer, src), 0, "")
}

func TestPurityUntaintDoesNotLeakAcrossBranches(t *testing.T) {
	// The clone happens only in one branch; the append on the other path
	// still aliases the caller's state and must be reported.
	src := `package fixture

type ProcID int

type State struct{ log []int }

type Proto struct{}

func (Proto) Init(p ProcID, input int, n int) State { return State{} }
func (Proto) SendStep(p ProcID, s State) (State, []int) { return s, nil }

func (s State) clone() State {
	return State{log: append([]int(nil), s.log...)}
}

func (Proto) Receive(p ProcID, s State, m int) State {
	if m == 0 {
		s = s.clone()
	}
	s.log = append(s.log, m)
	return s
}
`
	wantFindings(t, vetFixture(t, PurityAnalyzer, src), 1, "backing array")
}

// digestHeader declares an Add/Sub/Mixed trio: the shape of
// fingerprint.Digest, which the purity analyzer covers alongside protocol
// transitions.
const digestHeader = `package fixture

type Digest struct{ Lo, Hi uint64 }

func (d Digest) Add(o Digest) Digest { return Digest{Lo: d.Lo + o.Lo, Hi: d.Hi + o.Hi} }
func (d Digest) Sub(o Digest) Digest { return Digest{Lo: d.Lo - o.Lo, Hi: d.Hi - o.Hi} }
`

func TestPurityFlagsImpureDigestAlgebra(t *testing.T) {
	src := digestHeader + `
var mixes int

func (d Digest) Mixed(salt uint64) Digest {
	mixes++ // ambient state: Mixed is no longer a function of (d, salt)
	return Digest{Lo: d.Lo ^ salt, Hi: d.Hi ^ salt}
}
`
	got := vetFixture(t, PurityAnalyzer, src)
	wantFindings(t, got, 1, "package-level mutable variable")
}

func TestPurityAcceptsPureDigestAlgebra(t *testing.T) {
	src := digestHeader + `
func (d Digest) Mixed(salt uint64) Digest {
	return Digest{Lo: d.Lo ^ salt, Hi: d.Hi ^ salt}
}
`
	wantFindings(t, vetFixture(t, PurityAnalyzer, src), 0, "")
}

func TestPurityAnnotatedFunctionFlagged(t *testing.T) {
	// //ccvet:pure opts a plain function into the transition contract;
	// mutating a map reachable from an argument must be reported.
	src := `package fixture

type State struct{ m map[string]int }

//ccvet:pure
func replayStep(s State, k string, v int) State {
	s.m[k] = v
	return s
}
`
	wantFindings(t, vetFixture(t, PurityAnalyzer, src), 1, "replayStep")
}

func TestPurityAnnotatedFunctionCleanPasses(t *testing.T) {
	src := `package fixture

type State struct{ m map[string]int }

//ccvet:pure
func replayStep(s State, k string, v int) State {
	out := State{m: make(map[string]int, len(s.m)+1)}
	out.m[k] = v
	return out
}
`
	wantFindings(t, vetFixture(t, PurityAnalyzer, src), 0, "")
}

func TestPurityAnnotatedMethodFlagged(t *testing.T) {
	// The annotation also covers methods outside the δ/β trio shape.
	src := `package fixture

type Box struct{ vals []int }

//ccvet:pure
func (b *Box) Push(v int) {
	b.vals[0] = v
}
`
	wantFindings(t, vetFixture(t, PurityAnalyzer, src), 1, "Box.Push")
}

func TestPurityAppendToDstIsTheContract(t *testing.T) {
	// Appending to dst — the first parameter, returned as the result's slice
	// type — is the Append idiom; appending to any other argument still
	// writes into a backing array the caller did not hand over.
	src := `package fixture

type State struct{ log []int }

//ccvet:pure
func AppendLog(dst []int, s State) []int {
	return append(dst, s.log...)
}

//ccvet:pure
func AppendInto(dst []int, other []int) []int {
	other = append(other, 1)
	return append(dst, other...)
}
`
	wantFindings(t, vetFixture(t, PurityAnalyzer, src), 1, "append to other")
}

func TestPuritySentinelErrorAndForeignValueVarExempt(t *testing.T) {
	// Sentinel errors and stdlib value-typed namespace vars (the
	// binary.BigEndian idiom) are readable from pure bodies; module-local
	// non-error vars stay flagged.
	src := `package fixture

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var ErrShort = errors.New("short")

var counter int

//ccvet:pure
func decode(data []byte) (uint32, error) {
	if len(data) < 4 {
		return 0, fmt.Errorf("%w: %d bytes", ErrShort, len(data))
	}
	return binary.BigEndian.Uint32(data), nil
}

//ccvet:pure
func ambient() int {
	return counter
}
`
	wantFindings(t, vetFixture(t, PurityAnalyzer, src), 1, "counter")
}

func TestPurityIgnoreSuppresses(t *testing.T) {
	src := purityHeader + `
func (Proto) Receive(p ProcID, s State, m int) State {
	s.m["k"] = m //ccvet:ignore purity fixture demonstrates suppression
	return s
}
`
	wantFindings(t, vetFixture(t, PurityAnalyzer, src), 0, "")
}

// ---- detrange ----

func TestDetRangeFlagsUnsortedMapRange(t *testing.T) {
	src := `package fixture

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	got := vetFixture(t, DetRangeAnalyzer, src)
	wantFindings(t, got, 1, "nondeterministic")
	if got[0].Analyzer != "detrange" {
		t.Errorf("analyzer = %q, want detrange", got[0].Analyzer)
	}
}

func TestDetRangeAcceptsCollectAndSort(t *testing.T) {
	src := `package fixture

import "sort"

func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`
	wantFindings(t, vetFixture(t, DetRangeAnalyzer, src), 0, "")
}

func TestDetRangeIgnoreSuppresses(t *testing.T) {
	src := `package fixture

func Sum(m map[string]int) int {
	n := 0
	for _, v := range m { //ccvet:ignore detrange sum is commutative
		n += v
	}
	return n
}
`
	wantFindings(t, vetFixture(t, DetRangeAnalyzer, src), 0, "")
}

func TestDetRangeAppliesOnlyToDeterminismCriticalPackages(t *testing.T) {
	for rel, want := range map[string]bool{
		"internal/sim":          true,
		"internal/checker":      true,
		"internal/pattern":      true,
		"internal/scheme":       true,
		"internal/scheme/x":     true,
		"internal/runtime":      true,
		"internal/taxonomy":     true,
		"cmd/cclive":            true,
		"cmd/cclattice":         true,
		"cmd/ccpat":             true,
		"internal/protocols":    false,
		"cmd/ccexp":             false,
		"internal/schememaking": false,
	} {
		if got := DetRangeAnalyzer.AppliesTo(rel); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", rel, got, want)
		}
	}
}

// ---- selfsend ----

const selfsendHeader = `package fixture

type ProcID int

type Payload int

type Envelope struct {
	To      ProcID
	Payload Payload
}

type State int

type Proto struct{}

func (Proto) Init(p ProcID, input int, n int) State { return 0 }
func (Proto) Receive(p ProcID, s State, m int) State { return s }
`

func TestSelfSendFlagsEnvelopeToSender(t *testing.T) {
	src := selfsendHeader + `
func (Proto) SendStep(p ProcID, s State) (State, []Envelope) {
	q := p // alias of the sender
	return s, []Envelope{{To: q, Payload: 1}}
}
`
	got := vetFixture(t, SelfSendAnalyzer, src)
	wantFindings(t, got, 1, "forbids self-sends")
	if got[0].Analyzer != "selfsend" {
		t.Errorf("analyzer = %q, want selfsend", got[0].Analyzer)
	}
}

func TestSelfSendAcceptsOtherDestinations(t *testing.T) {
	src := selfsendHeader + `
func (Proto) SendStep(p ProcID, s State) (State, []Envelope) {
	return s, []Envelope{{To: p + 1, Payload: 1}}
}
`
	wantFindings(t, vetFixture(t, SelfSendAnalyzer, src), 0, "")
}

func TestSelfSendIgnoreSuppresses(t *testing.T) {
	src := selfsendHeader + `
func (Proto) SendStep(p ProcID, s State) (State, []Envelope) {
	//ccvet:ignore selfsend fixture demonstrates suppression
	return s, []Envelope{{To: p, Payload: 1}}
}
`
	wantFindings(t, vetFixture(t, SelfSendAnalyzer, src), 0, "")
}

// ---- errdrop ----

const errdropHeader = `package fixture

import "errors"

func mayFail() error { return errors.New("boom") }
`

func TestErrDropFlagsDiscardedError(t *testing.T) {
	src := errdropHeader + `
func Caller() {
	mayFail()
}
`
	got := vetFixture(t, ErrDropAnalyzer, src)
	wantFindings(t, got, 1, "error that is discarded")
	if got[0].Analyzer != "errdrop" {
		t.Errorf("analyzer = %q, want errdrop", got[0].Analyzer)
	}
}

func TestErrDropAcceptsHandledAndExplicitDiscard(t *testing.T) {
	src := errdropHeader + `
func Caller() error {
	if err := mayFail(); err != nil {
		return err
	}
	_ = mayFail() // explicit discard
	return nil
}
`
	wantFindings(t, vetFixture(t, ErrDropAnalyzer, src), 0, "")
}

func TestErrDropSkipsNonModuleCallees(t *testing.T) {
	src := `package fixture

import "fmt"

func Caller() {
	fmt.Println("fmt errors are deliberately fire-and-forget")
}
`
	wantFindings(t, vetFixture(t, ErrDropAnalyzer, src), 0, "")
}

func TestErrDropIgnoreSuppresses(t *testing.T) {
	src := errdropHeader + `
func Caller() {
	mayFail() //ccvet:ignore errdrop fixture demonstrates suppression
}
`
	wantFindings(t, vetFixture(t, ErrDropAnalyzer, src), 0, "")
}

// ---- ignore directive hygiene ----

func TestMalformedIgnoreIsReported(t *testing.T) {
	src := `package fixture

func f() {
	//ccvet:ignore
}
`
	got := vetFixture(t, ErrDropAnalyzer, src)
	wantFindings(t, got, 1, "malformed ignore comment")
	if got[0].Analyzer != "ccvet" {
		t.Errorf("analyzer = %q, want ccvet", got[0].Analyzer)
	}
}

func TestIgnoreCoversLineBelow(t *testing.T) {
	src := errdropHeader + `
func Caller() {
	//ccvet:ignore errdrop fixture: directive on the line above
	mayFail()
}
`
	wantFindings(t, vetFixture(t, ErrDropAnalyzer, src), 0, "")
}

func TestIgnoreDoesNotCoverOtherAnalyzers(t *testing.T) {
	src := errdropHeader + `
func Caller() {
	mayFail() //ccvet:ignore detrange wrong analyzer: must not suppress errdrop
}
`
	wantFindings(t, vetFixture(t, ErrDropAnalyzer, src), 1, "error that is discarded")
}

// ---- module loader and driver integration ----

func TestVetWholeModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; skipped in -short mode")
	}
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if mod.Path != "repro" {
		t.Fatalf("module path = %q, want repro", mod.Path)
	}
	findings, err := mod.Vet(DefaultAnalyzers(), []string{"..."})
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("ccvet is expected to run clean on the repo, got %d findings:\n%s",
			len(findings), renderFindings(findings))
	}
}

func TestMatchPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; skipped in -short mode")
	}
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pkgs, err := mod.MatchPatterns([]string{"internal/sim"})
	if err != nil {
		t.Fatalf("MatchPatterns(internal/sim): %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "repro/internal/sim" {
		t.Fatalf("MatchPatterns(internal/sim) = %v", pkgs)
	}
	tree, err := mod.MatchPatterns([]string{"internal/..."})
	if err != nil {
		t.Fatalf("MatchPatterns(internal/...): %v", err)
	}
	if len(tree) < 5 {
		t.Errorf("MatchPatterns(internal/...) matched %d packages, want several", len(tree))
	}
	// "./..." and "." are anchored at the working directory (the go tool's
	// semantics) — from this package's directory they select this subtree.
	here, err := mod.MatchPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("MatchPatterns(./...): %v", err)
	}
	if len(here) != 1 || here[0].Path != "repro/internal/analysis" {
		t.Fatalf("MatchPatterns(./...) from internal/analysis = %v, want just this package", here)
	}
	if _, err := mod.MatchPatterns([]string{"./no/such/dir"}); err == nil {
		t.Error("MatchPatterns on a nonexistent package should fail")
	}
}
