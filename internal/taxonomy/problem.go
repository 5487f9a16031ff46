package taxonomy

import (
	"fmt"

	"repro/internal/sim"
)

// Consistency is one of the paper's two consistency constraints.
type Consistency int

const (
	// IC is interactive consistency: no two operational (nonfaulty)
	// processors may simultaneously occupy different decision states.
	IC Consistency = iota + 1
	// TC is total consistency: no two processors ever decide on different
	// values — a decision must be consistent even with decisions made by
	// processors that subsequently failed.
	TC
)

// String names the constraint.
func (c Consistency) String() string {
	switch c {
	case IC:
		return "IC"
	case TC:
		return "TC"
	default:
		return "invalid"
	}
}

// Implies reports whether satisfying c implies satisfying d (TC ⇒ IC;
// Theorem 1's first half rests on this).
func (c Consistency) Implies(d Consistency) bool {
	return c == d || (c == TC && d == IC)
}

// Termination is one of the paper's three termination conditions, in
// increasing strength.
type Termination int

const (
	// WT is weak termination: every nonfaulty processor decides within a
	// bounded number of steps. It admits protocols that never halt,
	// terminating "in essence, by deadlocking".
	WT Termination = iota + 1
	// ST is strong termination: additionally, every nonfaulty processor
	// eventually enters an amnesic state, forgetting its decision but
	// remembering that one was made.
	ST
	// HT is halting termination: additionally, every nonfaulty processor
	// completes its role — it need no longer send or receive messages.
	HT
)

// String names the condition.
func (t Termination) String() string {
	switch t {
	case WT:
		return "WT"
	case ST:
		return "ST"
	case HT:
		return "HT"
	default:
		return "invalid"
	}
}

// Implies reports whether satisfying t implies satisfying u
// (HT ⇒ ST ⇒ WT; Theorem 1's second half).
func (t Termination) Implies(u Termination) bool { return t >= u }

// Problem is a consensus problem in the taxonomy: a decision rule, a
// consistency constraint, and a termination condition. Section 4's six
// problems fix the rule to unanimity and vary the other two axes.
//
// In the vocabulary of Civit et al., "On the Validity of Consensus"
// (PAPERS.md), Rule is the problem's validity property — a map from input
// configurations to the sets of admissible decisions — and a CONFORMS
// verdict is relative to it: val(inputs, f) = {d : Rule.Permits(d, inputs,
// f)}. Two things differ from their formalism, both the paper's: an input
// configuration here is the whole input vector (faults are benign, so a
// processor's bit counts whether or not it later crashes) together with one
// bit f, "a crash or an omission preceded the decision"; and validity is
// judged at each processor's first decision, not at the end of the run.
// Under UnanimityRule val is {commit} on all-ones without a failure,
// {abort} whenever some input is 0, and {commit, abort} on all-ones after a
// failure: the validity of atomic commitment.
type Problem struct {
	Rule        DecisionRule
	Consistency Consistency
	Termination Termination
}

// Name returns the paper's "T-C" notation, e.g. "WT-TC".
func (p Problem) Name() string {
	return fmt.Sprintf("%s-%s", p.Termination, p.Consistency)
}

// String includes the decision rule.
func (p Problem) String() string {
	return fmt.Sprintf("%s/%s", p.Name(), p.Rule.Name())
}

// SixProblems returns the six problems of Section 4 — {WT,ST,HT} × {IC,TC}
// under unanimity — in the order of the paper's closing diagram.
func SixProblems() []Problem {
	var out []Problem
	for _, t := range []Termination{WT, ST, HT} {
		for _, c := range []Consistency{IC, TC} {
			out = append(out, Problem{Rule: UnanimityRule{}, Consistency: c, Termination: t})
		}
	}
	return out
}

// TriviallyReduces reports whether p1 ⪯ p2 follows from Theorem 1's
// implications alone: same rule, p2's constraints at least as strong on both
// axes. (Strictness and incomparability require the witness protocols; see
// package lattice.)
func TriviallyReduces(p1, p2 Problem) bool {
	return p1.Rule.Name() == p2.Rule.Name() &&
		p2.Consistency.Implies(p1.Consistency) &&
		p2.Termination.Implies(p1.Termination)
}

// Violation records one way a run failed a problem's specification, and is
// every engine's verdict: the checker's, the chaos sweep's, a trace file's
// (serialized as is) and the live runtime's conformance replay.
type Violation struct {
	// Kind is the axis violated: "rule", "IC", "TC", "WT", "ST", or "HT".
	// The engines add their own: "model" (a step broke the model's
	// contract), "panic" (the protocol panicked), "run" (a live run
	// failed), and, from the live replay, "replay" (a recorded event does
	// not apply), "decision" (a live decision the replay disagrees with)
	// and "quiescence" (a live claim of quiescence the model denies).
	Kind string `json:"kind"`
	// Detail is a human-readable explanation naming the processors and
	// decisions involved.
	Detail string `json:"detail"`
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// Validate checks a run against the problem. Consistency and the decision
// rule are safety properties checked on every run; the termination
// conditions are liveness properties checked only when complete is true
// (the run is maximal: quiescent under a fair scheduler, so nothing more
// can ever happen). It is a StreamChecker fed the run's history — the
// properties have one implementation — so r.Configs must hold the
// configuration after every event of r.Schedule. Only bench/probes.go and
// tests call it: every engine judges a recorded schedule with
// StreamChecker.Replay, which keeps no history.
func (p Problem) Validate(r *sim.Run, complete bool) []Violation {
	sc := NewStreamChecker(p, r.Configs[0])
	for i, e := range r.Schedule {
		sc.Observe(e, r.Configs[i+1])
	}
	return sc.Finish(complete)
}
