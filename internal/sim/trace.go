package sim

import (
	"fmt"
	"strings"
)

// Trace renders the run as a human-readable event log: one line per event,
// annotating the messages placed into buffers, the payload received, and any
// decision first visible in the resulting configuration.
func (r *Run) Trace() []string {
	out := make([]string, 0, len(r.Schedule)+1)
	out = append(out, fmt.Sprintf("initial configuration: inputs %s", InputsString(r.Initial().Inputs)))
	decided := make([]bool, r.Initial().N())
	for i, e := range r.Schedule {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%3d. %s", i+1, e)
		eff := r.Effects[i]
		if eff.Received != nil && !eff.Received.Notice {
			fmt.Fprintf(&sb, " [%s]", eff.Received.Payload.Key())
		}
		if eff.Omitted != nil {
			if eff.Omitted.Notice {
				fmt.Fprintf(&sb, " [suppressed failed(%s)]", eff.Omitted.ID.From)
			} else {
				fmt.Fprintf(&sb, " [suppressed %s]", eff.Omitted.Payload.Key())
			}
		}
		for _, m := range eff.Sent {
			if m.Notice {
				continue
			}
			fmt.Fprintf(&sb, " → %s %s", m.ID, m.Payload.Key())
		}
		cfg := r.Configs[i+1]
		for p := 0; p < cfg.N(); p++ {
			d, ok := cfg.States[p].Decided()
			if ok && !decided[p] {
				decided[p] = true
				fmt.Fprintf(&sb, "   ⇒ %s decides %s", ProcID(p), d)
			}
		}
		out = append(out, sb.String())
	}
	return out
}

// Summary renders the final outcome of the run: per-processor status and
// message counts.
func (r *Run) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d events, %d messages, failure-free=%v\n",
		r.Proto.Name(), r.Steps(), r.MessagesSent(), r.FailureFree())
	final := r.Final()
	for p := 0; p < final.N(); p++ {
		pid := ProcID(p)
		status := "undecided"
		if d, ok := r.DecisionOf(pid); ok {
			status = "decided " + d.String()
		}
		s := final.States[p]
		switch {
		case s.Kind() == Failed:
			status += ", failed"
		case s.Kind() == Halted:
			status += ", halted"
		case s.Amnesic():
			status += ", amnesic"
		}
		fmt.Fprintf(&sb, "  %s: %s (%d steps)\n", pid, status, r.StepsOf(pid))
	}
	return sb.String()
}
