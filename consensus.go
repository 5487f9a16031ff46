// Package consensus is a library reproduction of Cynthia Dwork and Dale
// Skeen, "Patterns of Communication in Consensus Protocols" (PODC 1984,
// Cornell TR 84-611).
//
// The library provides:
//
//   - the paper's model of computation: asynchronous message passing among
//     fail-stop processors with detectable failures, configurations, events,
//     schedules, and runs (package sim, surfaced here);
//
//   - communication patterns — the Lamport-style partial order <_I on the
//     message triples (p, q, k) of an execution — and schemes, the sets of
//     patterns of all failure-free executions of a protocol;
//
//   - the taxonomy of consensus problems: decision rules (broadcast,
//     unanimity, threshold-k, set), consistency constraints (interactive and
//     total), and termination conditions (weak, strong/amnesic, halting);
//
//   - the paper's protocols: the Figure 1 tree protocol (WT-TC), the
//     Figure 2 star protocol (HT-IC), the Figure 3 chain protocol (WT-IC),
//     the Figure 4 "perverse" protocol, the Appendix termination protocol,
//     and companions (ack-commit, halting commit, reliable broadcast, naive
//     full exchange);
//
//   - an exhaustive model checker with failure injection, concurrency sets,
//     the safe-state analysis of Theorem 2, and a scenario-replay engine for
//     the indistinguishability arguments of Theorems 8 and 13;
//
//   - the Section 3 transformations (total-communication padding and E̅
//     elimination) and the six-problem lattice of Section 4, derived from
//     machine-checked witnesses.
//
// Quick start:
//
//	proto := consensus.Tree(7)
//	run, err := consensus.Run(proto, consensus.MustInputs("1111111"), 1)
//	pat := consensus.PatternOf(run)
//	fmt.Println(pat.RenderASCII())
package consensus

import (
	"context"
	"slices"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pattern"
	"repro/internal/protocols"
	"repro/internal/runtime"
	"repro/internal/runtime/dist"
	"repro/internal/runtime/netx"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/taxonomy"
	"repro/internal/transform"
)

// Model types (Section 3).
type (
	// Protocol is a consensus protocol over N deterministic processors.
	Protocol = sim.Protocol
	// State is a processor's local state.
	State = sim.State
	// ProcID identifies a processor p_i.
	ProcID = sim.ProcID
	// Bit is an initial value.
	Bit = sim.Bit
	// Decision is an irreversible outcome (abort or commit).
	Decision = sim.Decision
	// Message is an in-flight message.
	Message = sim.Message
	// Payload is a protocol-defined message body with a canonical key.
	Payload = sim.Payload
	// MsgID is the paper's message triple (p, q, k).
	MsgID = sim.MsgID
	// Event is a schedule element: a delivery, a sending step, or a failure.
	Event = sim.Event
	// Schedule is a finite sequence of events.
	Schedule = sim.Schedule
	// Config is a configuration: local states plus buffer contents.
	Config = sim.Config
	// ExecutionRun is a schedule together with its configurations.
	ExecutionRun = sim.Run
	// RunnerOptions configures the fair random scheduler.
	RunnerOptions = sim.RunnerOptions
	// FailureAt schedules a fail-stop failure injection.
	FailureAt = sim.FailureAt
	// OmissionPolicy bounds omission faults per run: Budget suppressed
	// deliveries total, with Mobile optionally capping how many processors
	// may be omission-faulty at once (the mobile-faults model).
	OmissionPolicy = sim.OmissionPolicy
)

// Pattern and scheme types (Section 3).
type (
	// Pattern is a communication pattern: message triples under <_I.
	Pattern = pattern.Pattern
	// PatternSet is a set of communication patterns; the scheme of a
	// protocol is a PatternSet.
	PatternSet = scheme.Set
	// SchemeOptions bounds scheme enumeration.
	SchemeOptions = scheme.Options
	// SchemeComparison relates two schemes under inclusion.
	SchemeComparison = scheme.Comparison
)

// Scheme comparison outcomes.
const (
	// SchemesEqual means the two protocols have exactly the same
	// communication patterns: either can substitute for the other up to a
	// renaming of states and padding of messages.
	SchemesEqual = scheme.SchemesEqual
	// SchemeSubset / SchemeSuperset are the strict inclusions.
	SchemeSubset   = scheme.SchemeSubset
	SchemeSuperset = scheme.SchemeSuperset
	// SchemesIncomparable means neither inclusion holds.
	SchemesIncomparable = scheme.SchemesIncomparable
)

// Taxonomy types (Section 2).
type (
	// Problem is a consensus problem: rule × consistency × termination.
	Problem = taxonomy.Problem
	// DecisionRule is a family of conditions for deciding a value.
	DecisionRule = taxonomy.DecisionRule
	// Consistency is IC or TC.
	Consistency = taxonomy.Consistency
	// Termination is WT, ST, or HT.
	Termination = taxonomy.Termination
	// Violation records one way a run failed a problem.
	Violation = taxonomy.Violation
)

// Reduction selects state-space reductions for exhaustive exploration
// (CheckOptions.Reduction): ample-set partial-order reduction, processor-
// symmetry canonicalization, both, or dead-letter elision alone. Reduced
// runs preserve the conformance verdict and terminal decision structure
// while exploring fewer interleavings; elision alone also keeps the state
// census, so the safe-state analysis on it is exact. See DESIGN.md §8.
type Reduction = checker.Reduction

// Reductions.
const (
	ReduceNone     = checker.ReduceNone
	ReduceAmple    = checker.ReduceAmple
	ReduceSymmetry = checker.ReduceSymmetry
	ReduceBoth     = checker.ReduceBoth
	ReduceElide    = checker.ReduceElide
)

// ParseReduction parses a -reduce flag value (none, ample, symmetry, both,
// elide).
func ParseReduction(s string) (Reduction, error) { return checker.ParseReduction(s) }

// Checker types.
type (
	// CheckOptions configures exhaustive exploration.
	CheckOptions = checker.Options
	// Exploration is the result of exploring a configuration space.
	Exploration = checker.Exploration
	// ExploreStatus reports how an exploration ended (complete,
	// interrupted, or budget-exhausted).
	ExploreStatus = checker.Status
	// BudgetError reports exhaustion of an exploration's node budget; the
	// partial Exploration accompanies it.
	BudgetError = checker.BudgetError
	// SafetyReport is the Theorem 2 safe-state analysis.
	SafetyReport = checker.SafetyReport
	// Driver builds specific adversarial executions step by step.
	Driver = checker.Driver
)

// Chaos-testing types.
type (
	// ChaosOptions configures a randomized failure-injection sweep.
	ChaosOptions = chaos.Options
	// ChaosReport is the result of a chaos sweep.
	ChaosReport = chaos.Report
	// ChaosFailure is one violating (or panicking) chaos run, with its
	// shrunk counterexample schedule.
	ChaosFailure = chaos.Failure
	// ChaosTrace is a replayable serialized counterexample.
	ChaosTrace = chaos.Trace
	// ChaosTraceEvent is one serialized schedule element.
	ChaosTraceEvent = chaos.TraceEvent
	// ChaosTraceInjection is a serialized failure injection.
	ChaosTraceInjection = chaos.TraceInjection
	// ChaosTraceViolation is a serialized violation.
	ChaosTraceViolation = chaos.TraceViolation
	// ChaosReplayResult is the outcome of re-executing a trace: the
	// violations the replay found and whether they match the recorded ones.
	ChaosReplayResult = chaos.ReplayResult
	// ChaosAdversary is a deterministic scheduling strategy driving a chaos
	// run's event choices (uniform, delay, adaptive).
	ChaosAdversary = chaos.Adversary
	// ChaosRunStat is one run's injection accounting, surfaced per run in
	// machine-readable sweep output.
	ChaosRunStat = chaos.RunStat
)

// Chaos adversary names (ChaosOptions.Adversary, ccchaos -adversary).
const (
	ChaosAdversaryUniform  = chaos.AdversaryUniform
	ChaosAdversaryDelay    = chaos.AdversaryDelay
	ChaosAdversaryAdaptive = chaos.AdversaryAdaptive
)

// NewChaosAdversary builds a per-run adversary by name (empty = uniform);
// exposed so CLIs can validate -adversary values before sweeping.
func NewChaosAdversary(name string) (ChaosAdversary, error) { return chaos.NewAdversary(name) }

// Live-runtime types (cmd/cclive).
type (
	// LiveConfig tunes one live run: transport faults, crash injections,
	// heartbeat cadence, detection timeout, and deadline.
	LiveConfig = runtime.Config
	// LiveFaultPlan configures the unreliable link under the transport.
	LiveFaultPlan = runtime.FaultPlan
	// LiveResult is one live run's recorded schedule, decisions, and
	// failure-detection measurements.
	LiveResult = runtime.Result
	// LiveCrash is one injected crash with its detection latency.
	LiveCrash = runtime.CrashReport
	// LiveConformance is the verdict of replaying a live run through the
	// deterministic simulator.
	LiveConformance = runtime.Conformance
	// LiveDivergence is one disagreement between a live run and the model.
	LiveDivergence = runtime.Divergence
	// ChaosRunPlan is the seed-derived recipe for one chaos or live run.
	ChaosRunPlan = chaos.RunPlan
	// LiveTransportStats snapshots the transport-layer loss, duplication,
	// and reconnection counters of a run.
	LiveTransportStats = runtime.TransportStats
)

// Distributed-runtime types (cmd/cclive -serve / -join).
type (
	// DistSpec describes one distributed run: protocol, inputs, the
	// processor→host owner map, and both fault plans.
	DistSpec = dist.Spec
	// DistOptions injects the protocol registry into the control plane.
	DistOptions = dist.Options
	// DistReport is a finished distributed run: the merged result plus
	// each host's share.
	DistReport = dist.Report
	// DistCoordinator is a standing multi-run distributed session.
	DistCoordinator = dist.Coordinator
	// LinkFaultPlan seeds interval-based link faults (partitions, stalls,
	// resets) in the TCP mesh; every decision is a pure function of
	// (seed, link, interval).
	LinkFaultPlan = netx.LinkFaultPlan
)

// Core (Section 4) types.
type (
	// Lattice is the six-problem relation of the closing diagram.
	Lattice = core.Lattice
	// Evidence is one machine-checked fact behind the lattice.
	Evidence = core.Evidence
	// Relation classifies a problem pair.
	Relation = core.Relation
	// WitnessOptions scales lattice verification effort.
	WitnessOptions = core.WitnessOptions
	// ExperimentReport is the outcome of one reproduction experiment.
	ExperimentReport = experiments.Report
	// ExperimentOptions scales experiment effort.
	ExperimentOptions = experiments.Options
)

// Values and constants.
const (
	// Zero and One are the two initial bits.
	Zero = sim.Zero
	One  = sim.One
	// NoDecision, Abort, and Commit are the decision values.
	NoDecision = sim.NoDecision
	Abort      = sim.Abort
	Commit     = sim.Commit
	// IC and TC are the consistency constraints.
	IC = taxonomy.IC
	TC = taxonomy.TC
	// WT, ST, and HT are the termination conditions.
	WT = taxonomy.WT
	ST = taxonomy.ST
	HT = taxonomy.HT
	// Chaos run outcomes.
	ChaosOutcomePassed     = chaos.OutcomePassed
	ChaosOutcomeViolated   = chaos.OutcomeViolated
	ChaosOutcomePanicked   = chaos.OutcomePanicked
	ChaosOutcomeUnresolved = chaos.OutcomeUnresolved
	ChaosOutcomeAborted    = chaos.OutcomeAborted
	// Chaos sweep statuses.
	ChaosStatusComplete    = chaos.StatusComplete
	ChaosStatusInterrupted = chaos.StatusInterrupted
)

// Protocol constructors.

// Tree returns the Figure 1 WT-TC tree protocol over n processors in heap
// layout (the paper's instance is n = 7).
func Tree(n int) Protocol { return protocols.Tree{Procs: n} }

// TreeST returns the Corollary 11 amnesic variant of the tree protocol,
// which solves ST-TC.
func TreeST(n int) Protocol { return protocols.Tree{Procs: n, ST: true} }

// Star returns the Figure 2 HT-IC centralized protocol.
func Star(n int) Protocol { return protocols.Star{Procs: n} }

// Chain returns the Figure 3 WT-IC chain protocol.
func Chain(n int) Protocol { return protocols.Chain{Procs: n} }

// ChainST returns the deliberately incorrect amnesic chain variant used in
// the proof of Theorem 13 (it violates ST-IC).
func ChainST(n int) Protocol { return protocols.Chain{Procs: n, ST: true} }

// Perverse returns the Figure 4 WT-TC protocol with exactly four
// failure-free communication patterns per input vector.
func Perverse() Protocol { return protocols.Perverse{} }

// PerverseForgetful returns the amnesic-p0 variant realizing Theorem 13's
// contradiction.
func PerverseForgetful() Protocol { return protocols.Perverse{ForgetfulP0: true} }

// TerminationProtocol returns the Appendix termination protocol run
// standalone: inputs are biases, and WT-TC is established within O(N²)
// steps per processor from safe starting biases (Theorem 7).
func TerminationProtocol(n int) Protocol { return protocols.Termination{Procs: n} }

// AckCommit returns the star-shaped safe commit protocol (WT-TC, arbitrary
// N): the depth-one instance of Figure 1's scheme and the core of
// nonblocking commit.
func AckCommit(n int) Protocol { return protocols.AckCommit{Procs: n} }

// HaltingCommit returns the HT-TC protocol: ack-commit plus decision
// broadcasts before halting and the modified termination protocol.
func HaltingCommit(n int) Protocol { return protocols.HaltingCommit{Procs: n} }

// Broadcast returns fail-stop reliable broadcast (the weak broadcast rule)
// with general p0.
func Broadcast(n int) Protocol { return protocols.Broadcast{Procs: n} }

// FullExchange returns the naive decentralized unanimity protocol — a WT-IC
// baseline with deliberately unsafe states (a Theorem 2 counterexample).
func FullExchange(n int) Protocol { return protocols.FullExchange{Procs: n} }

// TwoPhaseCommit returns classic (blocking) two-phase commit: WT-IC only,
// with the Theorem 2 unsafe uncertainty states that make it block.
func TwoPhaseCommit(n int) Protocol { return protocols.TwoPhaseCommit{Procs: n} }

// ThresholdCommit returns the safe two-phase protocol under the
// threshold-k decision rule: commit iff at least k processors vote 1.
func ThresholdCommit(n, k int) Protocol { return protocols.ThresholdCommit{Procs: n, K: k} }

// TotalComm wraps a protocol into its total-communication form: every
// message is padded with a copy of every causally prior message.
func TotalComm(p Protocol) Protocol { return transform.TotalComm{Inner: p} }

// EliminateEBar wraps a protocol in the Section 3 simulation that processes
// every message as soon as its existence is known, eliminating E̅ states.
func EliminateEBar(p Protocol) Protocol { return transform.EliminateEBar{Inner: p} }

// Execution and analysis.

// Run executes the protocol on the given inputs under the fair random
// scheduler (seeded) until quiescence.
func Run(p Protocol, inputs []Bit, seed int64) (*ExecutionRun, error) {
	return sim.RandomRun(p, inputs, sim.RunnerOptions{Seed: seed})
}

// RunWithOptions executes the protocol with full scheduler control,
// including failure injection.
func RunWithOptions(p Protocol, inputs []Bit, opts RunnerOptions) (*ExecutionRun, error) {
	return sim.RandomRun(p, inputs, opts)
}

// PatternOf extracts the communication pattern of a run.
func PatternOf(r *ExecutionRun) *Pattern { return pattern.FromRun(r) }

// SchemeOf computes the scheme of a protocol: the set of communication
// patterns of all failure-free executions over every input vector.
func SchemeOf(p Protocol, opts SchemeOptions) (*PatternSet, error) {
	return scheme.Of(p, opts)
}

// SchemeEnumeration is a possibly partial scheme enumeration: the patterns
// found so far plus how the walk ended.
type SchemeEnumeration = scheme.Enumeration

// SchemeOfContext computes the scheme with graceful degradation: on
// cancellation or budget exhaustion the patterns enumerated so far
// accompany the error instead of being discarded.
func SchemeOfContext(ctx context.Context, p Protocol, opts SchemeOptions) (*SchemeEnumeration, error) {
	return scheme.OfContext(ctx, p, opts)
}

// EnumeratePatterns computes the failure-free patterns from one input
// vector.
func EnumeratePatterns(p Protocol, inputs []Bit, opts SchemeOptions) (*PatternSet, error) {
	return scheme.Enumerate(p, inputs, opts)
}

// CompareSchemes computes and classifies the schemes of two protocols of
// equal size — the paper's protocol-level reduction instrument.
func CompareSchemes(a, b Protocol, opts SchemeOptions) (SchemeComparison, error) {
	return scheme.Compare(a, b, opts)
}

// Check model-checks a protocol against a problem over every input vector
// and failure pattern within the options' bounds.
func Check(p Protocol, problem Problem, opts CheckOptions) (*Exploration, error) {
	return checker.Check(p, problem, opts)
}

// CheckContext is Check with graceful degradation: on context cancellation
// or budget exhaustion the partial Exploration — visited nodes and every
// violation found so far, with its Status set — accompanies the error.
func CheckContext(ctx context.Context, p Protocol, problem Problem, opts CheckOptions) (*Exploration, error) {
	return checker.CheckContext(ctx, p, problem, opts)
}

// Explore walks a protocol's reachable configuration space without
// conformance checking (for safety analysis).
func Explore(p Protocol, opts CheckOptions) (*Exploration, error) {
	return checker.Explore(p, opts)
}

// ExploreContext is Explore with graceful degradation; see CheckContext.
func ExploreContext(ctx context.Context, p Protocol, opts CheckOptions) (*Exploration, error) {
	return checker.ExploreContext(ctx, p, opts)
}

// ErrChaosOptions is wrapped by the error Chaos returns when it refuses a
// sweep whose options hold a negative count.
var ErrChaosOptions = chaos.ErrOptions

// Chaos sweeps a protocol with randomized failure-injected executions,
// checking each against the problem and shrinking every violating schedule
// to a minimal, replayable counterexample. Cancellation is graceful: the
// partial report accompanies the context's error.
func Chaos(ctx context.Context, p Protocol, problem Problem, opts ChaosOptions) (*ChaosReport, error) {
	return chaos.Run(ctx, p, problem, opts)
}

// ChaosPlanRuns derives per-run seeds, inputs, and failure schedules from
// a sweep seed — the shared planning step of chaos sweeps and live soaks.
func ChaosPlanRuns(seed int64, runs, n, maxFail int, fixed [][]Bit) []ChaosRunPlan {
	return chaos.PlanRuns(seed, runs, n, maxFail, fixed)
}

// Live executes the protocol as one goroutine per processor over the
// fault-injected transport, with heartbeat failure detection, returning
// the recorded total-order schedule and live decisions.
func Live(ctx context.Context, p Protocol, inputs []Bit, cfg LiveConfig) (*LiveResult, error) {
	return runtime.Run(ctx, p, inputs, cfg)
}

// LiveConformStream replays a live result through the deterministic
// simulator and checks it against the problem's predicates; divergences
// mean the live execution left the model. The replay steps one
// configuration in place — O(N) states plus the O(N²) channel counters and
// whatever is buffered — so crash-amplified traces with millions of events,
// routine in distributed soaks at N=100, check in flat memory.
func LiveConformStream(res *LiveResult, p Protocol, problem Problem) (*LiveConformance, error) {
	return runtime.ConformStream(res, p, problem)
}

// NewDistCoordinator opens a distributed session: it binds the control
// plane on listenAddr and admits exactly joins joiner processes, which then
// serve any number of Run calls until Close.
func NewDistCoordinator(ctx context.Context, listenAddr string, joins int, opts DistOptions) (*DistCoordinator, error) {
	return dist.NewCoordinator(ctx, listenAddr, joins, opts)
}

// DistJoin runs one joiner process against a coordinator for a whole
// session, returning when the coordinator says done or hangs up.
func DistJoin(ctx context.Context, ctrlAddr string, opts DistOptions) error {
	return dist.Join(ctx, ctrlAddr, opts)
}

// DistOwner assigns n processors to hosts in contiguous slices, the
// standard layout for distributed soaks.
func DistOwner(n, hosts int) []int { return dist.ContiguousOwner(n, hosts) }

// ParsePayloadKey reconstructs a protocol payload from its canonical
// wire-format key; it is the decode half of a distributed registry.
func ParsePayloadKey(key string) (Payload, error) { return protocols.ParsePayloadKey(key) }

// WriteChaosTrace writes one failure of a chaos report — a sweep's, or a
// live soak's — as a replayable trace file in dir, named
// <prefix><protoArg>-<problem>-run<index>.json, and returns its path;
// maxSteps is the per-run step budget.
func WriteChaosTrace(dir, prefix, protoArg string, rep *ChaosReport, f *ChaosFailure, maxSteps int) (string, error) {
	return chaos.WriteTrace(dir, prefix, protoArg, rep, f, maxSteps)
}

// DecodeChaosTrace parses a serialized chaos trace.
func DecodeChaosTrace(data []byte) (*ChaosTrace, error) {
	return chaos.DecodeTrace(data)
}

// ReplayChaosTrace re-executes a trace against the protocol and re-asserts
// the recorded violation.
func ReplayChaosTrace(t *ChaosTrace, p Protocol, problem Problem) (*ChaosReplayResult, error) {
	return chaos.Replay(t, p, problem)
}

// NewDriver starts a step-by-step adversarial execution.
func NewDriver(p Protocol, inputs []Bit) (*Driver, error) {
	return checker.NewDriver(p, inputs)
}

// Problems and rules.

// Unanimity returns the unanimity decision rule (transaction commitment).
func Unanimity() DecisionRule { return taxonomy.UnanimityRule{} }

// BroadcastRule returns the Byzantine Generals decision rule with the given
// general; weak variants permit a default decision when the general fails.
func BroadcastRule(general ProcID, weak bool, dflt Decision) DecisionRule {
	return taxonomy.BroadcastRule{General: general, Weak: weak, Default: dflt}
}

// ThresholdRule returns the threshold-k decision rule.
func ThresholdRule(k int) DecisionRule { return taxonomy.ThresholdRule{K: k} }

// NewProblem assembles a consensus problem.
func NewProblem(rule DecisionRule, t Termination, c Consistency) Problem {
	return taxonomy.Problem{Rule: rule, Termination: t, Consistency: c}
}

// UnanimityProblem returns the Section 4 problem T-C under unanimity.
func UnanimityProblem(t Termination, c Consistency) Problem {
	return NewProblem(Unanimity(), t, c)
}

// SixProblems returns the six problems of the closing diagram.
func SixProblems() []Problem { return taxonomy.SixProblems() }

// ParseProblem parses the paper's "T-C" notation (e.g. "WT-TC", case
// insensitive) into a unanimity problem.
func ParseProblem(s string) (Problem, error) {
	parts := strings.SplitN(strings.ToUpper(s), "-", 2)
	if len(parts) != 2 {
		return Problem{}, &BadProblemError{Input: s, Reason: "want the form T-C, e.g. WT-TC"}
	}
	var t Termination
	switch parts[0] {
	case "WT":
		t = WT
	case "ST":
		t = ST
	case "HT":
		t = HT
	default:
		return Problem{}, &BadProblemError{Input: s, Reason: "termination must be WT, ST, or HT"}
	}
	var c Consistency
	switch parts[1] {
	case "IC":
		c = IC
	case "TC":
		c = TC
	default:
		return Problem{}, &BadProblemError{Input: s, Reason: "consistency must be IC or TC"}
	}
	return UnanimityProblem(t, c), nil
}

// ParseRule parses a decision-rule name: "unanimity", "threshold-K" (e.g.
// "threshold-1"), or "broadcast-P" (strong broadcast with general P). The
// standalone termination protocol, for example, satisfies threshold-1 —
// commit iff some processor started committable — but not unanimity, which
// is exactly Theorem 7's restriction to safe configurations.
func ParseRule(s string) (DecisionRule, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if name == "unanimity" {
		return Unanimity(), nil
	}
	if k, ok := strings.CutPrefix(name, "threshold-"); ok {
		v, err := strconv.Atoi(k)
		if err != nil || v < 1 {
			return nil, &BadProblemError{Input: s, Reason: "threshold-K needs K >= 1"}
		}
		return ThresholdRule(v), nil
	}
	if g, ok := strings.CutPrefix(name, "broadcast-"); ok {
		v, err := strconv.Atoi(g)
		if err != nil || v < 0 {
			return nil, &BadProblemError{Input: s, Reason: "broadcast-P needs a processor index"}
		}
		return BroadcastRule(ProcID(v), false, NoDecision), nil
	}
	return nil, &BadProblemError{Input: s, Reason: "want unanimity, threshold-K, or broadcast-P"}
}

// BadProblemError reports a malformed problem name.
type BadProblemError struct {
	Input  string
	Reason string
}

func (e *BadProblemError) Error() string {
	return "bad problem " + e.Input + ": " + e.Reason
}

// Lattice and experiments.

// BuildLattice derives the closing diagram's relation from the paper's base
// facts and logical closure.
func BuildLattice() *Lattice { return core.BuildLattice() }

// Witnesses runs the machine-checked evidence behind the lattice.
func Witnesses(opts WitnessOptions) []Evidence { return core.Witnesses(opts) }

// Experiments runs the reproduction experiments E1–E9.
func Experiments(opts ExperimentOptions) []ExperimentReport {
	return experiments.All(opts)
}

// Inputs helpers.

// MustInputs parses a vector like "1011"; it panics on malformed input and
// is intended for examples and tests.
func MustInputs(s string) []Bit {
	in, err := sim.InputsFromString(s)
	if err != nil {
		panic(err)
	}
	return in
}

// ParseInputs parses a vector like "1011".
func ParseInputs(s string) ([]Bit, error) { return sim.InputsFromString(s) }

// FormatInputs renders a vector as "1011", the form ParseInputs parses.
func FormatInputs(inputs []Bit) string { return sim.InputsString(inputs) }

// AllInputs enumerates every input vector of length n.
func AllInputs(n int) [][]Bit { return sim.AllInputs(n) }

// UnanimityOf computes the unanimity decision for an input vector.
func UnanimityOf(inputs []Bit) Decision { return sim.Unanimity(inputs) }

// ProtocolNames lists the names accepted by ProtocolByName.
func ProtocolNames() []string {
	return []string{
		"tree", "tree-st", "star", "chain", "chain-st", "perverse",
		"perverse-forgetful", "termination", "ackcommit", "haltingcommit",
		"broadcast", "fullexchange", "2pc", "threshold",
	}
}

// ProtocolByName resolves a protocol by CLI-friendly name and size. The
// perverse protocols are fixed at four processors; n is ignored for them.
// Every other protocol needs two processors or more: a smaller n is refused
// with a *ProtocolSizeError.
func ProtocolByName(name string, n int) (Protocol, error) {
	if n < 2 && name != "perverse" && name != "perverse-forgetful" && slices.Contains(ProtocolNames(), name) {
		return nil, &ProtocolSizeError{Name: name, N: n}
	}
	switch name {
	case "tree":
		return Tree(n), nil
	case "tree-st":
		return TreeST(n), nil
	case "star":
		return Star(n), nil
	case "chain":
		return Chain(n), nil
	case "chain-st":
		return ChainST(n), nil
	case "perverse":
		return Perverse(), nil
	case "perverse-forgetful":
		return PerverseForgetful(), nil
	case "termination":
		return TerminationProtocol(n), nil
	case "ackcommit":
		return AckCommit(n), nil
	case "haltingcommit":
		return HaltingCommit(n), nil
	case "broadcast":
		return Broadcast(n), nil
	case "fullexchange":
		return FullExchange(n), nil
	case "2pc":
		return TwoPhaseCommit(n), nil
	case "threshold":
		return ThresholdCommit(n, (n+1)/2), nil
	default:
		return nil, &UnknownProtocolError{Name: name}
	}
}

// ProtocolSizeError reports a protocol asked for with fewer than two
// processors, where consensus is not a question.
type ProtocolSizeError struct {
	Name string
	N    int
}

func (e *ProtocolSizeError) Error() string {
	return "protocol " + e.Name + " needs at least 2 processors, got " + strconv.Itoa(e.N)
}

// UnknownProtocolError reports an unrecognized protocol name.
type UnknownProtocolError struct{ Name string }

func (e *UnknownProtocolError) Error() string {
	return "unknown protocol " + e.Name + " (want one of " + strings.Join(ProtocolNames(), ", ") + ")"
}
