package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// Adversary is a deterministic message-scheduling strategy behind the
// chaos scheduler's Choose hook (Aspnes, "Randomized Protocols for
// Asynchronous Consensus": the adversary controls scheduling and may adapt
// to the execution so far). It chooses from the current configuration: one
// instance drives one run and is consulted at every step of it, so what a
// strategy needs of the past it carries as per-run state. Every choice
// draws only from the per-run seeded PRNG, so a run remains a pure function
// of its seed and options.
type Adversary interface {
	// Name is the strategy's flag name.
	Name() string
	// Choose returns the index of the event to apply next among those
	// enabled at c. Both arguments are the scheduler's: read, do not keep.
	Choose(rng *rand.Rand, proto sim.Protocol, c *sim.Config, enabled []sim.Event) int
}

// Adversary strategy names accepted by Options.Adversary and the
// ccchaos -adversary flag.
const (
	// AdversaryUniform picks uniformly among enabled events — the classic
	// fair random scheduler (and the default, byte-identical to sweeps
	// recorded before adversaries existed).
	AdversaryUniform = "uniform"
	// AdversaryDelay starves the lowest-ID undecided processor: it omits
	// that processor's deliveries when the omission budget allows, avoids
	// delivering to it otherwise, and schedules everything else uniformly.
	AdversaryDelay = "delay"
	// AdversaryAdaptive is greedy: it scores each enabled event by whether
	// applying it would grow the decided set and picks uniformly among the
	// events that keep the decided set smallest (omissions and deliveries
	// that decide nothing score best).
	AdversaryAdaptive = "adaptive"
)

// NewAdversary builds a fresh per-run adversary for the named strategy.
// The empty name is the uniform default.
func NewAdversary(name string) (Adversary, error) {
	switch name {
	case "", AdversaryUniform:
		return uniformAdversary{}, nil
	case AdversaryDelay:
		return &delayAdversary{}, nil
	case AdversaryAdaptive:
		return &adaptiveAdversary{}, nil
	}
	return nil, fmt.Errorf("chaos: unknown adversary %q (want %s, %s, or %s)",
		name, AdversaryUniform, AdversaryDelay, AdversaryAdaptive)
}

// uniformAdversary is the fair random scheduler.
type uniformAdversary struct{}

func (uniformAdversary) Name() string { return AdversaryUniform }

func (uniformAdversary) Choose(rng *rand.Rand, _ sim.Protocol, _ *sim.Config, enabled []sim.Event) int {
	return rng.Intn(len(enabled))
}

// decidedTracker accumulates which processors have ever visibly decided.
// Decisions are irrevocable, so OR-ing the visible decisions of each
// configuration the adversary is shown reconstructs the ever-decided set in
// O(N) per step, without a history.
type decidedTracker struct {
	decided []bool
}

func (t *decidedTracker) update(c *sim.Config) {
	if t.decided == nil {
		t.decided = make([]bool, c.N())
	}
	for p := range t.decided {
		if _, ok := c.DecidedAt(sim.ProcID(p)); ok {
			t.decided[p] = true
		}
	}
}

// delayAdversary starves the lowest-ID undecided processor.
type delayAdversary struct {
	decidedTracker
}

func (*delayAdversary) Name() string { return AdversaryDelay }

func (a *delayAdversary) Choose(rng *rand.Rand, _ sim.Protocol, c *sim.Config, enabled []sim.Event) int {
	a.update(c)
	victim := sim.ProcID(-1)
	for p := 0; p < c.N(); p++ {
		if !a.decided[p] && c.KindAt(sim.ProcID(p)) != sim.Failed {
			victim = sim.ProcID(p)
			break
		}
	}
	if victim < 0 {
		return rng.Intn(len(enabled))
	}
	// Sharpest starvation first: suppress the victim's deliveries outright
	// when the omission budget offers it. Otherwise schedule anything that
	// is not a delivery to the victim; deliver to it only when nothing else
	// is enabled (the run must progress).
	var omits, others []int
	for i, e := range enabled {
		switch {
		case e.Type == sim.Omit && e.Proc == victim:
			omits = append(omits, i)
		case e.Type != sim.Deliver || e.Proc != victim:
			others = append(others, i)
		}
	}
	if len(omits) > 0 {
		return omits[rng.Intn(len(omits))]
	}
	if len(others) > 0 {
		return others[rng.Intn(len(others))]
	}
	return rng.Intn(len(enabled))
}

// adaptiveAdversary greedily keeps the decided set smallest.
type adaptiveAdversary struct {
	decidedTracker
	best []int // scratch: the indices tied for the best score
}

func (*adaptiveAdversary) Name() string { return AdversaryAdaptive }

func (a *adaptiveAdversary) Choose(rng *rand.Rand, proto sim.Protocol, c *sim.Config, enabled []sim.Event) int {
	a.update(c)
	best := a.best[:0]
	bestScore := int(^uint(0) >> 1)
	for i, e := range enabled {
		score := a.score(proto, c, e)
		if score < bestScore {
			bestScore = score
			best = best[:0]
		}
		if score == bestScore {
			best = append(best, i)
		}
	}
	a.best = best
	return best[rng.Intn(len(best))]
}

// score is the number of processors the event would newly decide (0 or 1:
// only the stepping processor's state changes, and decisions are
// irrevocable). Omissions and failures never decide, so they score 0
// without asking the protocol; the rest are judged by the stepping
// processor's post-state, no successor built. An event Apply rejects scores
// worst so the run surfaces the authoritative error only when nothing else
// is enabled.
func (a *adaptiveAdversary) score(proto sim.Protocol, c *sim.Config, e sim.Event) int {
	if a.decided[e.Proc] || e.Type == sim.Omit || e.Type == sim.Fail {
		return 0
	}
	post, err := sim.PostState(proto, c, e)
	if err != nil {
		return int(^uint(0)>>1) - 1
	}
	if _, ok := post.Decided(); ok {
		return 1
	}
	return 0
}
