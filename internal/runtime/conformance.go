package runtime

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// Conformance is the verdict of replaying a live run through the
// deterministic simulator.
type Conformance struct {
	// Replayed is how many schedule events applied cleanly.
	Replayed int
	// Divergences lists every way the live run left the model: its
	// recorded schedule does not replay ("replay"), it claimed quiescence
	// the model denies ("quiescence"), its decisions disagree with the
	// replay's ("decision"), or the replayed run violates the problem's
	// predicates. Empty means the live execution is a legal run with the
	// same decisions, checked against the problem's predicates.
	Divergences []taxonomy.Violation
}

// OK reports whether the live run conformed.
func (c *Conformance) OK() bool { return len(c.Divergences) == 0 }

// ConformStream replays a live result through the simulator and checks it
// against the problem. This is the bridge from "ran" to "ran correctly":
//
//   - Every recorded event must apply under the model's rules. A transport
//     that delivers a message twice records a second Deliver the model
//     rejects (the message is no longer buffered); a processor stepping
//     after its crash is refused the same way.
//   - A live claim of quiescence must hold in the replayed configuration.
//     A transport that silently lost a message leaves it buffered in the
//     replay — the model still has an enabled event, so the claim fails.
//   - Live decisions must match the replay's, and the replayed run must
//     satisfy the problem's decision rule, consistency constraint, and
//     (when quiescent) termination condition.
//
// A run whose schedule carries Omit events — the injector suppressed some
// deliveries — is judged for safety only: omissions exempt their targets
// from the termination conditions, but they can also legitimately leave
// *non-targeted* processors waiting forever for suppressed messages, and
// whether a protocol terminates under an omission adversary is the
// checker's and the chaos sweep's question, not runtime conformance's. The
// replay, quiescence, decision, rule, and consistency checks all still
// apply in full.
//
// The replay is taxonomy.StreamChecker.Replay: one configuration stepped in
// place — O(N) states, the buffered messages and the O(N²) channel
// counters — so a crash-amplified trace of millions of events at N=100
// checks in flat memory, where a configuration per event would take tens
// of gigabytes.
//
// The returned error reports setup problems only (wrong input length);
// divergences are data, not errors.
//
//ccvet:pure
func ConformStream(res *Result, proto sim.Protocol, problem taxonomy.Problem) (*Conformance, error) {
	run, err := sim.NewRun(proto, res.Inputs)
	if err != nil {
		return nil, err
	}
	cur := run.Final() // the run is dropped: nobody else holds its configuration
	checker := taxonomy.NewStreamChecker(problem, cur)
	conf := &Conformance{}
	var why error
	conf.Replayed, why = checker.Replay(proto, cur, res.Schedule)
	if conf.Replayed < len(res.Schedule) {
		e := res.Schedule[conf.Replayed]
		if why == nil {
			why = cur.ApplyInPlace(proto, e) // sim's own words for why e does not apply; cur is left as it was
		}
		conf.Divergences = append(conf.Divergences, taxonomy.Violation{
			Kind:   "replay",
			Detail: fmt.Sprintf("event %d (%s) does not apply: %v", conf.Replayed, e, why),
		})
		return conf, nil
	}

	if res.Quiescent && !cur.Quiescent() {
		conf.Divergences = append(conf.Divergences, taxonomy.Violation{
			Kind:   "quiescence",
			Detail: "live run claimed quiescence but the replayed configuration has enabled events (a message the transport lost?)",
		})
	}
	for p := 0; p < proto.N(); p++ {
		replayed, _ := checker.Decision(sim.ProcID(p))
		if live := res.Decisions[p]; live != replayed {
			conf.Divergences = append(conf.Divergences, taxonomy.Violation{
				Kind:   "decision",
				Detail: fmt.Sprintf("%s decided %s live but %s in replay", sim.ProcID(p), live, replayed),
			})
		}
	}
	complete := res.Quiescent && cur.Quiescent() && !hasOmissions(res.Schedule)
	conf.Divergences = append(conf.Divergences, checker.Finish(complete)...)
	return conf, nil
}

// hasOmissions reports whether the schedule carries any Omit event, in
// which case the run is judged for safety only.
//
//ccvet:pure
func hasOmissions(sched sim.Schedule) bool {
	for _, e := range sched {
		if e.Type == sim.Omit {
			return true
		}
	}
	return false
}
