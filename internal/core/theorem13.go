package core

import (
	"fmt"
	"strings"

	"repro/internal/checker"
	"repro/internal/protocols"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// Theorem 13 (first half): WT-IC ≺ ST-IC. The witness is the chain protocol
// of Figure 3; its single failure-free pattern cannot support strong
// termination. The replay runs the deliberately amnesic chain variant
// through the proof's two scenarios:
//
//	Scenario 1: every input is 1; p0 commits and becomes amnesic; p1 and
//	p3 fail before the decision message reaches p2.
//
//	Scenario 2: p1's input is 0; p0 aborts and becomes amnesic; p1 and p3
//	fail before the decision message reaches p2.
//
// The amnesic p0 occupies the same state in both scenarios (there is really
// only one amnesic state), and so does p2 (it has received nothing but
// failure notices). By Lemma 3 the common continuation forces the same
// decision on p2 in both — so in one of them p0 and p2 reach mutually
// inconsistent decisions. The replay realizes the inconsistency concretely:
// p2 aborts in both scenarios, contradicting p0's commit in Scenario 1.
func Theorem13ChainReplay() Evidence {
	ev := Evidence{
		Name:  "Theorem 13 (WT-IC ≺ ST-IC, scenario replay)",
		Claim: "the chain pattern with amnesia forces p2 to a decision inconsistent with p0's",
	}
	d1, err := theorem13Scenario([]sim.Bit{sim.One, sim.One, sim.One, sim.One})
	if err != nil {
		ev.Details = append(ev.Details, "scenario 1: "+err.Error())
		return ev
	}
	d2, err := theorem13Scenario([]sim.Bit{sim.One, sim.Zero, sim.One, sim.One})
	if err != nil {
		ev.Details = append(ev.Details, "scenario 2: "+err.Error())
		return ev
	}

	// Indistinguishability: the amnesic p0 and the uninformed p2 occupy
	// identical states across the scenarios.
	if !checker.SameState(d1, d2, 0) {
		ev.Details = append(ev.Details,
			"p0's amnesic states differ:",
			"  scenario 1: "+d1.StateOf(0).Key(),
			"  scenario 2: "+d2.StateOf(0).Key())
		return ev
	}
	if !checker.SameState(d1, d2, 2) {
		ev.Details = append(ev.Details,
			"p2's states differ:",
			"  scenario 1: "+d1.StateOf(2).Key(),
			"  scenario 2: "+d2.StateOf(2).Key())
		return ev
	}
	ev.Details = append(ev.Details, "p0 amnesic state: "+d1.StateOf(0).Key())

	// p0's hidden decisions differ: commit in scenario 1, abort in 2.
	if d, ok := d1.Run().DecisionOf(0); !ok || d != sim.Commit {
		ev.Details = append(ev.Details, "scenario 1: p0 should have committed before forgetting")
		return ev
	}
	if d, ok := d2.Run().DecisionOf(0); !ok || d != sim.Abort {
		ev.Details = append(ev.Details, "scenario 2: p0 should have aborted before forgetting")
		return ev
	}

	// Identical continuations (Lemma 3): run both to quiescence under the
	// canonical scheduler; p2 reaches the same decision in both.
	if err := d1.RunToQuiescence(); err != nil {
		ev.Details = append(ev.Details, "scenario 1 continuation: "+err.Error())
		return ev
	}
	if err := d2.RunToQuiescence(); err != nil {
		ev.Details = append(ev.Details, "scenario 2 continuation: "+err.Error())
		return ev
	}
	p2d1, ok1 := d1.Run().DecisionOf(2)
	p2d2, ok2 := d2.Run().DecisionOf(2)
	if !ok1 || !ok2 {
		ev.Details = append(ev.Details, "p2 failed to decide in a continuation")
		return ev
	}
	if p2d1 != p2d2 {
		ev.Details = append(ev.Details, "p2 decided differently despite indistinguishability — Lemma 3 violated")
		return ev
	}
	if p2d1 != sim.Abort {
		ev.Details = append(ev.Details, fmt.Sprintf("p2 decided %s; expected abort (it saw only failures and an amnesic p0)", p2d1))
		return ev
	}
	ev.OK = true
	ev.Details = append(ev.Details,
		"p2 aborts in both scenarios while p0 committed in scenario 1:",
		"two nonfaulty processors with inconsistent decisions — ST-IC is violated")
	return ev
}

// theorem13Scenario drives the amnesic chain to the paper's configuration:
// p0 decided and amnesic, p1 and p3 failed, p2 fed only failure notices.
func theorem13Scenario(inputs []sim.Bit) (*checker.Driver, error) {
	proto := protocols.Chain{Procs: 4, ST: true}
	d, err := checker.NewDriver(proto, inputs)
	if err != nil {
		return nil, err
	}
	blocked := func(e sim.Event) bool {
		// Hold back every delivery to p2 and p3, and p1's receipt of
		// the decision (it must fail before forwarding it).
		if e.Type != sim.Deliver {
			return false
		}
		return e.Proc == 2 || e.Proc == 3 || (e.Proc == 1 && e.Msg.From == 0)
	}
	amnesic := func(c *sim.Config) bool {
		return c.States[0].Amnesic() && c.States[0].Kind() != sim.Sending
	}
	if err := d.Drive(checker.Excluding(blocked), amnesic, 0); err != nil {
		return nil, err
	}
	if err := d.Fail(1, 3); err != nil {
		return nil, err
	}
	// p2 consumes its pending send and the failure notices.
	settled := func(c *sim.Config) bool {
		return len(c.Buffers[2]) == 0 && c.States[2].Kind() != sim.Sending
	}
	if err := d.Drive(checker.OnlyProcs(2), settled, 0); err != nil {
		return nil, err
	}
	return d, nil
}

// Theorem 13 (second half): WT-TC ≺ ST-TC. The witness is the perverse
// protocol of Figure 4: its scheme has exactly four failure-free patterns
// per input vector, and the send rule for the dashed message m3 requires p0
// to remember whether it sent m1 when m2 arrives — memory an amnesic
// processor cannot have. The forgetful variant realizes the contradiction:
// its scheme contains a pattern with m3 but without m1.
func Theorem13Perverse() Evidence {
	ev := Evidence{
		Name:  "Theorem 13 (WT-TC ≺ ST-TC, Figure 4)",
		Claim: "the perverse scheme has exactly 4 patterns and amnesia breaks the m3 rule",
	}
	allOnes := []sim.Bit{sim.One, sim.One, sim.One, sim.One}
	m1 := sim.MsgID{From: 0, To: 3, Seq: 1}
	m2 := sim.MsgID{From: 1, To: 0, Seq: 2}
	m3 := sim.MsgID{From: 0, To: 2, Seq: 3}

	set, err := scheme.Enumerate(protocols.Perverse{}, allOnes, scheme.Options{})
	if err != nil {
		ev.Details = append(ev.Details, err.Error())
		return ev
	}
	if set.Len() != 4 {
		ev.Details = append(ev.Details, fmt.Sprintf("expected 4 patterns, got %d", set.Len()))
		return ev
	}
	for _, p := range set.Patterns() {
		if p.Has(m3) != (p.Has(m1) && p.Has(m2)) {
			ev.Details = append(ev.Details, "a pattern violates the m3 ⇔ m1 ∧ m2 rule")
			return ev
		}
	}
	ev.Details = append(ev.Details, "perverse: exactly 4 failure-free patterns; m3 sent iff m1 and m2 sent")

	forget, err := scheme.Enumerate(protocols.Perverse{ForgetfulP0: true}, allOnes, scheme.Options{})
	if err != nil {
		ev.Details = append(ev.Details, err.Error())
		return ev
	}
	for _, p := range forget.Patterns() {
		if p.Has(m3) && !p.Has(m1) {
			ev.OK = true
			ev.Details = append(ev.Details,
				"forgetful p0: a pattern contains m3 without m1 — outside Figure 4's scheme,",
				"so no ST-TC protocol shares the perverse protocol's scheme")
			return ev
		}
	}
	ev.Details = append(ev.Details, "forgetful variant failed to break the rule")
	return ev
}

// Theorem13ChainChecker confirms with the model checker that the amnesic
// chain variant violates ST-IC (the scenario is not an isolated trace).
func Theorem13ChainChecker(opts WitnessOptions) Evidence {
	ev := Evidence{
		Name:  "Theorem 13 (checker confirmation)",
		Claim: "the amnesic chain variant violates interactive consistency under failures",
	}
	x, err := checker.CheckContext(opts.ctx(), protocols.Chain{Procs: 3, ST: true},
		taxonomy.Problem{Rule: taxonomy.UnanimityRule{}, Termination: taxonomy.ST, Consistency: taxonomy.IC},
		checker.Options{MaxFailures: 2, StopAtFirstViolation: true})
	if err != nil {
		ev.Details = append(ev.Details, err.Error())
		return ev
	}
	for _, v := range x.Violations {
		if v.Kind == "IC" {
			ev.OK = true
			ev.Details = append(ev.Details, "violation found: "+v.Detail)
			return ev
		}
	}
	if len(x.Violations) > 0 {
		ev.Details = append(ev.Details, "violations found but none of kind IC: "+x.Violations[0].String())
		return ev
	}
	ev.Details = append(ev.Details, "no violation found — unexpected")
	return ev
}

// chainPhaseKey is used by tests to spot-check scenario staging.
func chainPhaseKey(d *checker.Driver, p sim.ProcID) string {
	key := d.StateOf(p).Key()
	if i := strings.IndexByte(key, ' '); i > 0 {
		return key[:i]
	}
	return key
}
