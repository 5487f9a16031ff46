package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/fingerprint"
	"repro/internal/frontier"
	"repro/internal/pattern"
	rt "repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/symmetry"
	"repro/internal/taxonomy"
)

// Layer probes time one public function of one layer over a seeded corpus
// harvested from a workload's cell. They run only in the traced run, each
// under its own span, and assign their results to the sinks below so the
// compiler cannot drop the call.
var (
	sinkEvents  []sim.Event
	sinkConfig  *sim.Config
	sinkDigest  fingerprint.Digest
	sinkBool    bool
	sinkInt     int
	sinkAny     any
	sinkBytes   []byte
	sinkPattern *pattern.Pattern
	sinkString  string
)

// probeMin is how long each probe measures at least; a probe repeats its
// pass over the corpus until it has.
func probeMin(s scale) time.Duration {
	if s == scaleTiny {
		return time.Millisecond
	}
	return 15 * time.Millisecond
}

// corpus is the probe input of one cell: seeded random runs of the cell's
// protocol with the cell's fault classes, and what they visited.
type corpus struct {
	cell    string
	proto   sim.Protocol
	problem taxonomy.Problem
	// runs are the seeded executions; complete[i] says run i ended quiescent.
	runs     []*sim.Run
	complete []bool
	// cfgs[i] is a visited configuration (fingerprint cache warm, as the
	// explorer holds them) and evs[i] the event its run applied to it.
	cfgs []*sim.Config
	evs  []sim.Event
	msgs []sim.Message
	// harvestNs and events time sim.RandomRun itself: the deep-path cost a
	// chaos run pays per event.
	harvestNs float64
	events    int
}

// A corpus is up to corpusRuns runs and corpusConfigs configurations. A run
// keeps every configuration it visits, so at N = 24 the harvest stops early,
// once corpusEvents events are held, and not at a gigabyte.
const (
	corpusConfigs = 4096
	corpusRuns    = 256
	corpusEvents  = 20000
)

// harvest builds a cell's corpus from the seed. Crash injections are drawn
// up to maxFail per run so failed states and dead letters occur whenever
// the cell explores them.
func harvest(e *env, cell string, proto sim.Protocol, problem taxonomy.Problem, maxFail int, pol sim.OmissionPolicy) (*corpus, error) {
	h := fnv.New64a()
	h.Write([]byte(cell))
	rng := rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
	n := proto.N()
	if maxFail < 0 || maxFail > n-1 {
		maxFail = n - 1
	}
	runs := corpusRuns
	if e.scale == scaleTiny {
		runs = 24
	}
	c := &corpus{cell: cell, proto: proto, problem: problem}
	span := e.tr.begin("sim.RandomRun", cell)
	var pairs int
	for i := 0; i < runs && c.events < corpusEvents; i++ {
		inputs := make([]sim.Bit, n)
		for p := range inputs {
			inputs[p] = sim.Bit(rng.Intn(2))
		}
		var fails []sim.FailureAt
		for k := rng.Intn(maxFail + 1); k > 0; k-- {
			fails = append(fails, sim.FailureAt{Proc: sim.ProcID(rng.Intn(n)), AfterStep: rng.Intn(16)})
		}
		opts := sim.RunnerOptions{Seed: rng.Int63(), Failures: fails, Omission: pol}
		t0 := time.Now()
		run, err := sim.RandomRun(proto, inputs, opts)
		c.harvestNs += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			e.tr.end(span, int64(c.events))
			return nil, fmt.Errorf("corpus run %d of %s: %w", i, cell, err)
		}
		c.events += run.Steps()
		pairs += run.Steps()
		c.runs = append(c.runs, run)
		c.complete = append(c.complete, run.Final().Quiescent())
	}
	e.tr.end(span, int64(c.events))

	stride := 1
	if pairs > corpusConfigs {
		stride = (pairs + corpusConfigs - 1) / corpusConfigs
	}
	k := 0
	for _, run := range c.runs {
		for i, ev := range run.Schedule {
			if k%stride == 0 {
				cfg := run.Configs[i]
				cfg.Fingerprint()
				c.cfgs = append(c.cfgs, cfg)
				c.evs = append(c.evs, ev)
			}
			k++
			if len(c.msgs) < corpusConfigs {
				c.msgs = append(c.msgs, run.Effects[i].Sent...)
			}
		}
	}
	if len(c.cfgs) == 0 {
		return nil, fmt.Errorf("corpus of %s is empty", cell)
	}
	return c, nil
}

// probeGroup selects which layers a workload's cells are probed for.
type probeGroup uint

const (
	probeSim probeGroup = 1 << iota
	probeReduce
	probeFrontier
	probePattern
	probeValidate
	probeStream
	probeChaos
	probeCodec
)

// prober times probe bodies under spans and folds them into rates.
type prober struct {
	e  *env
	c  *corpus
	rs *rates
}

// time repeats body, which performs ops operations per call, until probeMin
// has been measured, and folds ns/op into rate nsName (and allocations per
// operation into allocName, when given). prep, if non-nil, runs untimed
// before each repeat.
func (p *prober) time(nsName, allocName string, ops int, prep, body func()) {
	if ops == 0 {
		return
	}
	if prep != nil {
		prep()
	}
	body() // warm caches and lazily built tables, untimed
	runtime.GC()
	span := p.e.tr.begin("probe:"+nsName, p.c.cell)
	var ns, allocs float64
	var before, after runtime.MemStats
	reps := 0
	for ns < float64(probeMin(p.e.scale).Nanoseconds()) {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		body()
		ns += float64(time.Since(t0).Nanoseconds())
		runtime.ReadMemStats(&after)
		allocs += float64(after.Mallocs - before.Mallocs)
		reps++
	}
	total := float64(ops * reps)
	p.e.tr.end(span, int64(total))
	p.rs.add(nsName, "ns", ns, total)
	if allocName != "" {
		p.rs.add(allocName, "count", allocs, total)
	}
}

// probeModel runs the selected probe groups over one cell's corpus.
func probeModel(e *env, c *corpus, groups probeGroup, rs *rates) {
	p := &prober{e: e, c: c, rs: rs}
	proto := c.proto

	if groups&probeSim != 0 {
		rs.add("sim.randomrun_ns_per_event", "ns", c.harvestNs, float64(c.events))
		p.time("sim.enabled_ns", "", len(c.cfgs), nil, func() {
			for _, cfg := range c.cfgs {
				sinkEvents = sim.Enabled(cfg)
			}
		})
		p.time("sim.apply_ns", "sim.apply_allocs", len(c.cfgs), nil, func() {
			for i, cfg := range c.cfgs {
				sinkConfig, _, _ = sim.Apply(proto, cfg, c.evs[i])
			}
		})
		pred := sim.NewPredictor()
		p.time("sim.predict_ns", "", len(c.cfgs), nil, func() {
			for i, cfg := range c.cfgs {
				pr, _ := pred.Predict(proto, cfg, c.evs[i])
				sinkDigest = pr.CfgFP
			}
		})
	}

	if groups&probeReduce != 0 {
		perms := symmetry.ForProtocol(proto)
		rs.add("symmetry.group_order", "count", float64(len(perms)+1), 1)
		// Canonicalization is per successor in the explorer; a quarter of
		// the corpus keeps the |G|-fold loop inside the probe budget.
		sub := c.cfgs[:(len(c.cfgs)+3)/4]
		if len(perms) > 0 {
			p.time("sim.permute_ns", "sim.permute_allocs", len(sub)*len(perms), nil, func() {
				for _, cfg := range sub {
					for _, perm := range perms {
						sinkConfig, sinkBool = sim.PermuteConfig(cfg, perm)
					}
				}
			})
			// What checker.canonicalizeSucc does for one successor, from
			// outside: the orbit minimum of cold fingerprints.
			p.time("symmetry.canon_ns", "symmetry.canon_allocs", len(sub), nil, func() {
				for _, cfg := range sub {
					best := cfg.Fingerprint()
					for _, perm := range perms {
						pc, _ := sim.PermuteConfig(cfg, perm)
						if fp := pc.Fingerprint(); fp.Less(best) {
							best = fp
						}
					}
					sinkDigest = best
				}
			})
		}
		p.time("sim.elide_ns", "", len(c.cfgs), nil, func() {
			for _, cfg := range c.cfgs {
				sinkConfig, sinkBool = cfg.WithoutDeadBuffers()
			}
		})
		// A configuration assembled from parts has no fingerprint cache,
		// like a fresh PermuteConfig result: every Fingerprint is cold.
		cold := make([]*sim.Config, len(c.cfgs))
		p.time("fingerprint.cold_ns", "", len(cold), func() {
			for i, cfg := range c.cfgs {
				cold[i] = &sim.Config{States: cfg.States, Buffers: cfg.Buffers, Inputs: cfg.Inputs}
			}
		}, func() {
			for _, cfg := range cold {
				sinkDigest = cfg.Fingerprint()
			}
		})
		keys := make([]string, len(c.cfgs))
		for i, cfg := range c.cfgs {
			keys[i] = cfg.Key()
		}
		p.time("fingerprint.ofstring_ns", "", len(keys), nil, func() {
			for _, k := range keys {
				sinkDigest = fingerprint.OfString(k)
			}
		})
	}

	if groups&probeFrontier != 0 {
		// 16 salted copies of every corpus digest give the sets a working
		// size nearer an exploration's than the corpus alone would.
		const copies = 16
		digests := make([]fingerprint.Digest, 0, len(c.cfgs)*copies)
		for _, cfg := range c.cfgs {
			d := cfg.Fingerprint()
			for k := uint64(0); k < copies; k++ {
				digests = append(digests, d.Mixed(k))
			}
		}
		var seq *frontier.SeqVisited
		p.time("frontier.admit_ns", "", 2*len(digests), func() {
			seq = frontier.NewSeqVisited(frontier.DedupFingerprint)
		}, func() {
			for pass := 0; pass < 2; pass++ { // fresh, then hit
				for _, d := range digests {
					sinkBool = seq.Admit(d, "")
				}
			}
		})
		var set *frontier.FPVisitedSet
		addFrom := func(workers int) func() {
			return func() {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(part []fingerprint.Digest) {
						defer wg.Done()
						for _, d := range part {
							set.Add(d)
						}
					}(digests[w*len(digests)/workers : (w+1)*len(digests)/workers])
				}
				wg.Wait()
			}
		}
		fresh := func() { set = frontier.NewFPVisitedSet() }
		p.time("frontier.fpset_add_ns_p1", "", len(digests), fresh, addFrom(1))
		if nproc := runtime.GOMAXPROCS(0); nproc >= 2 {
			p.time("frontier.fpset_add_ns_pmax", "", len(digests), fresh, addFrom(nproc))
		}
		p.time("frontier.owner_ns", "", len(digests), nil, func() {
			for _, d := range digests {
				sinkInt = frontier.Owner(d, 8)
			}
		})
	}

	if groups&probePattern != 0 {
		pats := make([]*pattern.Pattern, len(c.runs))
		p.time("pattern.fromrun_ns", "", len(c.runs), nil, func() {
			for i, run := range c.runs {
				pats[i] = pattern.FromRun(run)
			}
			sinkPattern = pats[0]
		})
		p.time("pattern.key_ns", "", len(pats), nil, func() {
			for _, pt := range pats {
				sinkString = pt.Key()
			}
		})
	}

	if groups&probeValidate != 0 {
		p.time("taxonomy.validate_ns", "", len(c.runs), nil, func() {
			for i, run := range c.runs {
				sinkAny = c.problem.Validate(run, c.complete[i])
			}
		})
	}
	if groups&probeStream != 0 {
		p.time("taxonomy.stream_observe_ns", "", c.events, nil, func() {
			for _, run := range c.runs {
				sc := taxonomy.NewStreamChecker(c.problem, run.Configs[0])
				for i, ev := range run.Schedule {
					sc.Observe(ev, run.Configs[i+1])
				}
				sinkAny = sc
			}
		})
	}
	if groups&probeChaos != 0 {
		p.time("chaos.evaluate_ns", "", len(c.runs), nil, func() {
			for _, run := range c.runs {
				sinkAny = chaos.Evaluate(proto, run.Configs[0].Inputs, run.Schedule, c.problem)
			}
		})
	}

	if groups&probeCodec != 0 && len(c.msgs) > 0 {
		frames := make([][]byte, len(c.msgs))
		var bytes float64
		for i, m := range c.msgs {
			f, err := rt.EncodeMessage(m)
			if err != nil {
				panic(fmt.Sprintf("bench: corpus message %v does not encode: %v", m.ID, err))
			}
			frames[i] = f
			bytes += float64(len(f))
		}
		rs.add("runtime.frame_bytes", "B", bytes, float64(len(frames)))
		p.time("runtime.frame_encode_ns", "", len(c.msgs), nil, func() {
			for _, m := range c.msgs {
				sinkBytes, _ = rt.EncodeMessage(m)
			}
		})
		p.time("runtime.frame_decode_ns", "", len(frames), nil, func() {
			for _, f := range frames {
				fr, _ := rt.DecodeFrame(f)
				sinkInt = fr.Seq
			}
		})
		p.time("runtime.dedupkey_ns", "", len(frames), nil, func() {
			for _, f := range frames {
				id, _ := rt.DedupKey(f)
				sinkInt = id.Seq
			}
		})
	}
}
