package runtime

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// MergeGroups folds the per-host results of a run into one Result whose
// schedule is a global total order, ready for the conformance replay. A
// one-host run merges its single share: the sort is then the identity.
//
// The merge key is (Lamport timestamp, host, local index). Each collector's
// timestamps are strictly increasing, so sorting preserves every host's
// local order; a deliver event ticks past the witness carried with the
// message, so it sorts after the send that produced it; ties between hosts
// are broken by host id, which is sound because concurrent events commute
// in the model. The result is a happens-before-consistent total order.
//
// Wall-clock fields (decision and crash times) are host-local UnixNano
// readings; they are only combined because every host of a soak runs on one
// machine and one clock. startNs is the coordinator's go-signal timestamp.
//
// The merge itself is pure: it reads no clock and draws no randomness, so
// equal group results merge to equal Results.
func MergeGroups(protoName string, inputs []sim.Bit, owner []int, groups []*GroupResult, startNs int64) (*Result, error) {
	n := len(owner)
	byHost := make(map[int]*GroupResult, len(groups))
	for _, g := range groups {
		if g == nil {
			return nil, fmt.Errorf("runtime: merge given a nil group result")
		}
		if byHost[g.Host] != nil {
			return nil, fmt.Errorf("runtime: two group results claim host %d", g.Host)
		}
		byHost[g.Host] = g
	}
	for p, h := range owner {
		if byHost[h] == nil {
			return nil, fmt.Errorf("runtime: processor %d owned by host %d, which reported no result", p, h)
		}
	}

	type entry struct {
		ts   uint64
		host int
		idx  int
	}
	var entries []entry
	for _, g := range groups {
		if len(g.TS) != len(g.Schedule) {
			return nil, fmt.Errorf("runtime: host %d recorded %d events but %d timestamps", g.Host, len(g.Schedule), len(g.TS))
		}
		for i := range g.Schedule {
			entries = append(entries, entry{ts: g.TS[i], host: g.Host, idx: i})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.host != b.host {
			return a.host < b.host
		}
		return a.idx < b.idx
	})

	res := &Result{
		Inputs:    append([]sim.Bit(nil), inputs...),
		Proto:     protoName,
		Schedule:  make(sim.Schedule, len(entries)),
		Decisions: make([]sim.Decision, n),
		Decided:   make([]time.Duration, n),
	}
	for i, e := range entries {
		res.Schedule[i] = byHost[e.host].Schedule[e.idx]
	}

	var firstCrashNs int64
	for p := 0; p < n; p++ {
		g := byHost[owner[p]]
		res.Decisions[p] = g.Decisions[p]
		if at := g.DecidedAtNs[p]; at != 0 && at > startNs {
			res.Decided[p] = time.Duration(at - startNs)
		}
		if at := g.CrashAtNs[p]; at != 0 {
			res.Crashes = append(res.Crashes, CrashReport{
				Proc:      sim.ProcID(p),
				Detection: time.Duration(g.DetectionNs[p]),
			})
			if firstCrashNs == 0 || at < firstCrashNs {
				firstCrashNs = at
			}
		}
	}
	if firstCrashNs != 0 {
		for p := 0; p < n; p++ {
			g := byHost[owner[p]]
			if g.CrashAtNs[p] == 0 && g.DecidedAtNs[p] > firstCrashNs {
				if rec := time.Duration(g.DecidedAtNs[p] - firstCrashNs); rec > res.Recovery {
					res.Recovery = rec
				}
			}
		}
	}
	for _, g := range groups {
		res.FalseSuspicions += g.FalseSuspicions
		res.LinkSuspicions += g.LinkSuspicions
		res.Transport.Add(g.Transport)
	}
	return res, nil
}
