package checker

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// Check explores the protocol's configuration space and verifies it against
// the problem over every requested input vector and failure pattern. It is
// the executable counterpart of "Q is a protocol for P": the decision rule
// is enforced at every decision transition, the consistency constraint at
// every accessible configuration, and the termination condition at every
// terminal (quiescent) configuration — each by the taxonomy judge that also
// judges runs (taxonomy.Problem.AppendRule, AppendConsistency,
// AppendTermination), so a violation reads the same in both.
func Check(proto sim.Protocol, problem taxonomy.Problem, opts Options) (*Exploration, error) {
	return CheckContext(context.Background(), proto, problem, opts)
}

// CheckContext is Check with graceful degradation: on cancellation or budget
// exhaustion the partial Exploration (with Status set and all violations
// found so far) accompanies the error. See ExploreContext.
func CheckContext(ctx context.Context, proto sim.Protocol, problem taxonomy.Problem, opts Options) (*Exploration, error) {
	xs, err := CheckAll(ctx, proto, []taxonomy.Problem{problem}, opts)
	if xs == nil {
		return nil, err
	}
	return xs[0], err
}

// CheckAll verifies the protocol against several problems in one walk of
// its configuration space: the space does not depend on what it is judged
// against, so the i-th Exploration returned is field for field what
// CheckContext(ctx, proto, problems[i], opts) returns — its own Violations
// (capped at 100) and counterexample; the node count, census, configuration
// records and status of the one shared walk — partial results included.
// StopAtFirstViolation cuts the walk at one problem's first violation, so it
// is accepted with a single problem only.
func CheckAll(ctx context.Context, proto sim.Protocol, problems []taxonomy.Problem, opts Options) ([]*Exploration, error) {
	if len(problems) == 0 {
		return nil, fmt.Errorf("checker: CheckAll of %s needs at least one problem", proto.Name())
	}
	if len(problems) > 1 && opts.StopAtFirstViolation {
		return nil, fmt.Errorf("checker: StopAtFirstViolation cuts the walk of %s for one problem; got %d", proto.Name(), len(problems))
	}
	x, judges, err := explore(ctx, proto, problems, opts)
	if x == nil {
		return nil, err
	}
	out := make([]*Exploration, len(judges))
	for i := range judges {
		xi := *x
		xi.Violations, xi.FirstInputs, xi.FirstTrace = judges[i].violations, judges[i].inputs, judges[i].trace
		out[i] = &xi
	}
	return out, err
}

// edgeViolations appends what problem's decision rule finds on the edge
// prev → next: applying one event turned some processor's ledger entry from
// undecided to decided. failureSeen is the explorer's reading of "a failure
// has occurred" in the pre-configuration.
func edgeViolations(out []taxonomy.Violation, problem taxonomy.Problem, prev, next *node, failureSeen bool) []taxonomy.Violation {
	for p, d := range next.ledger {
		if prev.ledger[p] == sim.NoDecision && d != sim.NoDecision {
			out = problem.AppendRule(out, sim.ProcID(p), d, prev.inputs, failureSeen)
		}
	}
	return out
}

// nodeViolations appends what problem finds on the configuration admitted
// at index at: its consistency constraint, and its termination condition if
// the configuration is terminal — a maximal fair run ends there (the
// scheduler may inject no further failures). The omission exemption reads
// the configuration's own record of suppressed deliveries.
func nodeViolations(out []taxonomy.Violation, problem taxonomy.Problem, at int, nd *node) []taxonomy.Violation {
	out = problem.AppendConsistency(out, at, nd.cfg, nd.ledger)
	if nd.cfg.Quiescent() {
		out = problem.AppendTermination(out, nd.cfg, nd.ledger, nd.cfg.OmissionTarget)
	}
	return out
}
