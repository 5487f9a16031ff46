package netx

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fingerprint"
)

// LinkState is the fault plan's verdict for one directed link over one
// interval of the run.
type LinkState int

const (
	// LinkOK: the link carries frames normally.
	LinkOK LinkState = iota
	// LinkSevered: the sender holds every frame for the whole interval —
	// one side of a partition. Held frames flush once the interval ends,
	// so at-least-once delivery survives every non-permanent partition.
	LinkSevered
	// LinkStalled: the sender holds frames for the first half of the
	// interval, then flushes — a slow link rather than a dead one.
	LinkStalled
	// LinkReset: the connection is forcibly closed at the interval start;
	// frames flow again once the link redials and resumes from the last
	// cumulative ack.
	LinkReset
)

func (s LinkState) String() string {
	switch s {
	case LinkOK:
		return "ok"
	case LinkSevered:
		return "sever"
	case LinkStalled:
		return "stall"
	case LinkReset:
		return "reset"
	}
	return fmt.Sprintf("LinkState(%d)", int(s))
}

// LinkFaultPlan schedules link faults above the sockets. Time is divided
// into fixed intervals (the mesh config sets the wall length; this plan
// never reads a clock), and the state of every directed link in every
// interval is a pure function of (Seed, from, to, interval) — so two runs
// with the same seed inject byte-identical fault schedules, and the
// schedule can be rendered and diffed without running anything.
//
// Directions roll independently, so asymmetric links (A→B severed while
// B→A flows) arise at the configured rates without extra machinery.
type LinkFaultPlan struct {
	// Seed keys every per-(link, interval) decision.
	Seed int64
	// SeverRate, StallRate, and ResetRate are the per-(link, interval)
	// probabilities of each fault; they are tried in that order against a
	// single roll, so their sum must be ≤ 1.
	SeverRate float64
	StallRate float64
	ResetRate float64
	// ActiveIntervals bounds fault injection: intervals ≥ ActiveIntervals
	// are always LinkOK (except permanent isolation), so every finite
	// schedule heals and a live run can finish. Zero disables random
	// faults entirely.
	ActiveIntervals int
	// Isolate lists processes permanently partitioned from everyone else:
	// every link with exactly one endpoint in the set is severed in every
	// interval, never healing. This is the conformance teeth check — a
	// permanently isolated quorum must surface as a deadline failure, not
	// a quiet success.
	Isolate []int
}

// Salt separating link-fault rolls from every other seeded decision.
const saltLink uint64 = 0xd6e8feb86659fd93

// Enabled reports whether the plan can ever produce a fault.
//
//ccvet:pure
func (p LinkFaultPlan) Enabled() bool {
	return len(p.Isolate) > 0 ||
		(p.ActiveIntervals > 0 && p.SeverRate+p.StallRate+p.ResetRate > 0)
}

// isolated reports whether id is in the permanent-isolation set.
//
//ccvet:pure
func (p LinkFaultPlan) isolated(id int) bool {
	for _, q := range p.Isolate {
		if q == id {
			return true
		}
	}
	return false
}

// roll returns a deterministic value in [0, 1) for one (link, interval).
//
//ccvet:pure
func (p LinkFaultPlan) roll(from, to, interval int) float64 {
	x := fingerprint.Mix64(uint64(p.Seed) ^ saltLink)
	x = fingerprint.Mix64(x ^ uint64(from)<<32 ^ uint64(to))
	x = fingerprint.Mix64(x ^ uint64(interval))
	return float64(x>>11) / float64(1<<53)
}

// State is the plan's verdict for the directed link from→to during the
// given interval. It is a pure function of its arguments and the plan.
//
//ccvet:pure
func (p LinkFaultPlan) State(from, to, interval int) LinkState {
	if p.isolated(from) != p.isolated(to) {
		return LinkSevered
	}
	if interval >= p.ActiveIntervals {
		return LinkOK
	}
	r := p.roll(from, to, interval)
	switch {
	case r < p.SeverRate:
		return LinkSevered
	case r < p.SeverRate+p.StallRate:
		return LinkStalled
	case r < p.SeverRate+p.StallRate+p.ResetRate:
		return LinkReset
	default:
		return LinkOK
	}
}

// Render writes the full fault schedule for the given processes over the
// given number of intervals, one line per faulted (interval, link), in a
// canonical order. Two runs configured with the same seed must render
// byte-identical schedules; the cclive -print-faults flag exposes exactly
// this string for that check.
//
//ccvet:pure
func (p LinkFaultPlan) Render(procs []int, intervals int) string {
	sorted := append([]int(nil), procs...)
	sort.Ints(sorted)
	var sb strings.Builder
	fmt.Fprintf(&sb, "linkfaults seed=%d sever=%g stall=%g reset=%g active=%d isolate=%v\n",
		p.Seed, p.SeverRate, p.StallRate, p.ResetRate, p.ActiveIntervals, p.Isolate)
	for interval := 0; interval < intervals; interval++ {
		for _, from := range sorted {
			for _, to := range sorted {
				if from == to {
					continue
				}
				if st := p.State(from, to, interval); st != LinkOK {
					fmt.Fprintf(&sb, "i%03d %d->%d %s\n", interval, from, to, st)
				}
			}
		}
	}
	return sb.String()
}
