package runtime

import (
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// Conformance is the verdict of replaying a live run through the
// deterministic simulator.
type Conformance struct {
	// Replayed is how many schedule events applied cleanly.
	Replayed int
	// Divergences lists every way the live run left the model, as
	// taxonomy.Judge finds them. Empty means the live execution is a legal
	// run with the same decisions that satisfies the problem's predicates.
	Divergences []taxonomy.Violation
}

// OK reports whether the live run conformed.
func (c *Conformance) OK() bool { return len(c.Divergences) == 0 }

// ConformStream replays a live result through the simulator and checks it
// against the problem — the bridge from "ran" to "ran correctly": it is
// taxonomy.Judge given the run's claims. The replay steps one
// configuration in place, so a crash-amplified trace of millions of events
// at N=100 checks in flat memory, where a configuration per event would
// take tens of gigabytes. The returned error reports setup problems only
// (wrong input length); divergences are data, not errors.
//
//ccvet:pure
func ConformStream(res *Result, proto sim.Protocol, problem taxonomy.Problem) (*Conformance, error) {
	claims := res.Claims()
	j, err := taxonomy.Judge(proto, problem, res.Inputs, res.Schedule, &claims)
	if err != nil {
		return nil, err
	}
	return &Conformance{Replayed: j.Replayed, Divergences: j.Violations}, nil
}

// Claims returns what the run says of itself, for taxonomy.Judge to hold
// against its replay. Decisions is res.Decisions, not a copy.
func (res Result) Claims() taxonomy.Claims {
	c := taxonomy.Claims{Decisions: res.Decisions, Quiescent: res.Quiescent}
	if res.Err != nil {
		c.Err = res.Err.Error()
	}
	return c
}
