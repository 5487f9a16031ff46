package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	consensus "repro"
	"repro/internal/runtime/netx"
	"repro/internal/sim"
)

// Timer settings shared by the three live workloads.
const (
	liveHeartbeat = time.Millisecond
	liveDetect    = 12 * time.Millisecond
	liveDeadline  = 10 * time.Second
)

// liveSpec is one live workload's fixed shape. Runs are a closed loop with
// one client: run i+1 starts when run i has quiesced and been replayed.
type liveSpec struct {
	wname, wwhy string
	proto       string
	n           int
	problem     string
	// Injected message faults. delay is the upper end of the uniform
	// per-attempt transit delay; zero means instantaneous links, so latency
	// is processor time only.
	drop, dup float64
	delay     time.Duration
	// crash injects exactly one seeded crash per run.
	crash bool
	// hosts > 0 runs over TCP on 127.0.0.1 with that many hosts.
	hosts int
	// batch is the runs of one pass; minBatches keeps a measured run at or
	// above 100 live runs. warm is the untimed runs of a set-up.
	batch, minBatches, warm int
}

func liveSpecs(s scale) []liveSpec {
	clean := liveSpec{
		wname: "live-clean",
		wwhy:  "CPU-bound runtime path, frame codec to mailbox to collector to streaming conformance, with retransmit and detector idle; the no-network baseline of live-tcp",
		proto: "star", n: 24, problem: "HT-IC", batch: 100, minBatches: 3, warm: 10,
	}
	faulty := liveSpec{
		wname: "live-faulty",
		wwhy:  "timer- and retry-bound: retransmit and backoff, heartbeat detection and Appendix termination recovery, with one crash in every run to keep the medians off the crash/no-crash knee",
		proto: "ackcommit", n: 16, problem: "WT-TC", drop: 0.10, dup: 0.10, delay: 300 * time.Microsecond,
		crash: true, batch: 25, minBatches: 4, warm: 2,
	}
	tcp := liveSpec{
		wname: "live-tcp",
		wwhy:  "netx (wire codec, per-link seq/acks, keepalive) and dist (per-run mesh, control handshake, MergeGroups) over loopback; everything else equals live-clean",
		proto: "star", n: 24, problem: "HT-IC", hosts: 3, batch: 50, minBatches: 3, warm: 3,
	}
	if s == scaleTiny {
		clean.n, clean.batch, clean.minBatches, clean.warm = 6, 6, 1, 1
		faulty.n, faulty.batch, faulty.minBatches, faulty.warm = 6, 6, 1, 1
		tcp.n, tcp.batch, tcp.minBatches, tcp.warm = 6, 5, 1, 1
	}
	return []liveSpec{clean, faulty, tcp}
}

// livePlan is the generated input of one live run: the program under test
// receives these and nothing else of the seed.
type livePlan struct {
	Inputs    []sim.Bit
	FaultSeed int64
	Crash     []sim.FailureAt
}

// livePlanCount is how many runs are planned up front; a soak that outlasts
// them reuses the plans from the start.
const livePlanCount = 4096

// planLive derives every run's inputs, transport fault seed and crash from
// the seed. Every fourth run is all-ones (the commit path, on which a crashed
// processor must be detected before the survivors can decide); the others
// draw uniform bits (at these sizes, the abort path). The fixed 1:3 mix puts
// the knee between the two populations at the 75th percentile, so p50 reads
// the abort path and p90 the commit path, and neither sits on the knee. A
// crash strikes a uniform processor after 4..39 recorded events, early
// enough to fire in every run of the protocols used here.
func planLive(seed int64, spec liveSpec) []livePlan {
	rng := rand.New(rand.NewSource(seed))
	plans := make([]livePlan, livePlanCount)
	for i := range plans {
		in := make([]sim.Bit, spec.n)
		for p := range in {
			if i%4 == 0 || rng.Intn(2) == 1 {
				in[p] = sim.One
			}
		}
		plans[i] = livePlan{Inputs: in, FaultSeed: rng.Int63()}
		if spec.crash {
			plans[i].Crash = []sim.FailureAt{{Proc: sim.ProcID(rng.Intn(spec.n)), AfterStep: 4 + rng.Intn(36)}}
		}
	}
	return plans
}

type liveWL struct {
	spec    liveSpec
	proto   consensus.Protocol
	problem consensus.Problem
	plans   []livePlan
	next    int

	// TCP session: the coordinator (host 0) and the joiner goroutines all
	// live in this process.
	coord   *consensus.DistCoordinator
	cancel  context.CancelFunc
	joiners sync.WaitGroup

	acc liveAcc
}

// liveAcc accumulates over every run of the invocation.
type liveAcc struct {
	runs                                 int
	runsPerS                             []float64
	decisionMs, recoveryMs, detectMs     []float64
	tailMs, runSetupMs                   []float64
	events, conformNs, elapsedNs, wallNs float64
	transport                            consensus.LiveTransportStats
	falseSuspicions                      int
}

func (w *liveWL) name() string { return w.spec.wname }
func (w *liveWL) why() string  { return w.spec.wwhy }
func (w *liveWL) minPasses(scale) int {
	return w.spec.minBatches
}
func (w *liveWL) needsCores() int { return 1 }

func distOptions() consensus.DistOptions {
	return consensus.DistOptions{Resolve: consensus.ProtocolByName, Decode: consensus.ParsePayloadKey}
}

func (w *liveWL) setUp(e *env) error {
	proto, err := consensus.ProtocolByName(w.spec.proto, w.spec.n)
	if err != nil {
		return err
	}
	w.proto, w.problem = proto, mustProblem(w.spec.problem)
	w.plans, w.next, w.acc = planLive(e.seed, w.spec), 0, liveAcc{}
	if w.spec.hosts > 0 {
		if err := w.openSession(); err != nil {
			return err
		}
	}
	// A few untimed runs, taken from the far end of the plans: goroutine
	// stacks, timers and (over TCP) the first meshes exist before the first
	// timed run.
	var p passOut
	for i := 1; i <= w.spec.warm; i++ {
		w.runOne(&env{}, w.plans[len(w.plans)-i], &p, nil)
	}
	if len(p.failures) > 0 {
		return fmt.Errorf("warm-up: %s", p.failures[0])
	}
	return nil
}

// openSession binds the control plane on a loopback port and admits the
// joiner goroutines, which serve every run until tearDown.
func (w *liveWL) openSession() error {
	ctx, cancel := context.WithCancel(context.Background())
	joins := w.spec.hosts - 1
	w.cancel = cancel
	opts := distOptions()
	opts.OnListen = func(addr string) {
		for i := 0; i < joins; i++ {
			w.joiners.Add(1)
			go func() {
				defer w.joiners.Done()
				// A joiner that fails mid-session fails the coordinator's
				// next Run, which is where the failure is reported.
				_ = consensus.DistJoin(ctx, addr, distOptions())
			}()
		}
	}
	coord, err := consensus.NewDistCoordinator(ctx, "127.0.0.1:0", joins, opts)
	if err != nil {
		cancel()
		w.joiners.Wait()
		return fmt.Errorf("coordinator: %w", err)
	}
	w.coord = coord
	return nil
}

func (w *liveWL) tearDown() {
	if w.coord == nil {
		return
	}
	_ = w.coord.Close() // hanging up is what tells the joiners to return
	w.joiners.Wait()
	w.cancel()
	w.coord = nil
}

func (w *liveWL) pass(e *env) passOut {
	var p passOut
	t0 := time.Now()
	for i := 0; i < w.spec.batch; i++ {
		plan := w.plans[w.next%len(w.plans)]
		w.next++
		w.runOne(e, plan, &p, &w.acc)
	}
	wall := time.Since(t0)
	w.acc.wallNs += float64(wall.Nanoseconds())
	w.acc.runsPerS = append(w.acc.runsPerS, float64(w.spec.batch)/wall.Seconds())
	return p
}

// runOne executes one live run to quiescence and replays it through the
// model. A run fails unless it quiesced without error, its replay conforms,
// and the transport settled every message it accepted. acc is nil for the
// warm-up run.
func (w *liveWL) runOne(e *env, plan livePlan, p *passOut, acc *liveAcc) {
	p.ops++
	ctx := context.Background()
	faults := consensus.LiveFaultPlan{Seed: plan.FaultSeed, DropRate: w.spec.drop, DupRate: w.spec.dup, MaxDelay: w.spec.delay}
	var (
		res *consensus.LiveResult
		err error
	)
	t0 := time.Now()
	if w.coord != nil {
		span := e.tr.begin("dist.Coordinator.Run", "")
		var rep *consensus.DistReport
		rep, err = w.coord.Run(ctx, consensus.DistSpec{
			Proto: w.spec.proto, N: w.spec.n, Inputs: plan.Inputs, Owner: consensus.DistOwner(w.spec.n, w.spec.hosts),
			Faults: faults, Heartbeat: liveHeartbeat, DetectTimeout: liveDetect, Deadline: liveDeadline, Failures: plan.Crash,
		})
		if err == nil {
			res = rep.Result
		}
		e.tr.end(span, 1)
	} else {
		span := e.tr.begin("runtime.Run", "")
		res, err = consensus.Live(ctx, w.proto, plan.Inputs, consensus.LiveConfig{
			Faults: faults, Failures: plan.Crash, Heartbeat: liveHeartbeat, DetectTimeout: liveDetect, Deadline: liveDeadline,
		})
		e.tr.end(span, 1)
	}
	runWall := time.Since(t0)
	missed := func(format string, args ...any) {
		p.fail(format, args...)
		// A failed run misses any latency limit: it is recorded at the
		// run deadline, the largest latency a run can have.
		if acc != nil {
			acc.decisionMs = append(acc.decisionMs, ms(liveDeadline))
		}
	}
	if err != nil {
		missed("%s run: %v", w.spec.wname, err)
		return
	}
	span := e.tr.begin("runtime.ConformStream", "")
	c0 := time.Now()
	conf, cerr := consensus.LiveConformStream(res, w.proto, w.problem)
	conformNs := time.Since(c0).Nanoseconds()
	e.tr.end(span, int64(len(res.Schedule)))
	switch {
	case cerr != nil:
		missed("%s replay: %v", w.spec.wname, cerr)
		return
	case res.Err != nil:
		missed("%s run error: %v", w.spec.wname, res.Err)
		return
	case !res.Quiescent:
		missed("%s run did not quiesce", w.spec.wname)
		return
	case !conf.OK():
		missed("%s run left the model: %s", w.spec.wname, conf.Divergences[0])
		return
	case res.Transport.Accepted != res.Transport.Settled:
		missed("%s transport accepted %d but settled %d", w.spec.wname, res.Transport.Accepted, res.Transport.Settled)
		return
	}
	var decided time.Duration
	for _, d := range res.Decided {
		decided = max(decided, d)
	}
	if acc == nil {
		return
	}
	acc.runs++
	acc.decisionMs = append(acc.decisionMs, ms(decided))
	acc.tailMs = append(acc.tailMs, ms(res.Elapsed-decided))
	acc.runSetupMs = append(acc.runSetupMs, ms(runWall-res.Elapsed))
	acc.events += float64(len(res.Schedule))
	acc.conformNs += float64(conformNs)
	acc.elapsedNs += float64(res.Elapsed.Nanoseconds())
	acc.falseSuspicions += res.FalseSuspicions
	if len(res.Crashes) > 0 {
		acc.recoveryMs = append(acc.recoveryMs, ms(res.Recovery))
		for _, c := range res.Crashes {
			acc.detectMs = append(acc.detectMs, ms(c.Detection))
		}
	}
	t, a := &acc.transport, res.Transport
	t.Accepted += a.Accepted
	t.Settled += a.Settled
	t.Drops += a.Drops
	t.Dups += a.Dups
	t.FramesSent += a.FramesSent
	t.FramesResent += a.FramesResent
	t.Dials += a.Dials
	t.Reconnects += a.Reconnects
}

func (w *liveWL) finish(out *metrics) {
	a := w.acc
	out.put(Metric{Name: "runs_per_s", Unit: "1/s", Value: median(a.runsPerS), Samples: len(a.runsPerS)})
	out.put(Metric{Name: "decision_ms_p50", Unit: "ms", Value: quantile(a.decisionMs, 0.5), Samples: len(a.decisionMs)})
	out.put(Metric{Name: "decision_ms_p90", Unit: "ms", Value: quantile(a.decisionMs, 0.9), Samples: len(a.decisionMs)})
	if w.spec.crash {
		out.put(Metric{Name: "recovery_ms_p50", Unit: "ms", Value: quantile(a.recoveryMs, 0.5), Samples: len(a.recoveryMs)})
	}
}

func (w *liveWL) layers(e *env, out *metrics) {
	var rs rates
	corp, err := harvest(e, fmt.Sprintf("%s(%d)/%s", w.spec.proto, w.spec.n, w.spec.problem), w.proto, w.problem, 0, sim.OmissionPolicy{})
	if err != nil {
		out.put(Metric{Name: "runtime.frame_encode_ns", Unit: "ns", NotMeasured: err.Error()})
	} else {
		probeModel(e, corp, probeSim|probeStream|probeCodec, &rs)
	}
	rs.flush(out)

	a := w.acc
	runs := float64(a.runs)
	if runs == 0 {
		return
	}
	settled := float64(a.transport.Settled)
	out.set("runtime.msgs_per_run", "count", settled/runs)
	out.set("runtime.events_per_run", "count", a.events/runs)
	out.set("runtime.msgs_per_s", "1/s", settled/(a.elapsedNs/1e9))
	out.set("runtime.conform_ns_per_event", "ns", a.conformNs/a.events)
	out.set("runtime.conform_share", "ratio", a.conformNs/a.wallNs)
	out.put(Metric{Name: "runtime.quiesce_tail_ms_p50", Unit: "ms", Value: quantile(a.tailMs, 0.5), Samples: len(a.tailMs)})
	out.put(Metric{Name: "runtime.attempts_per_settled", Unit: "ratio",
		Value: (settled + float64(a.transport.Drops+a.transport.Dups)) / settled,
		Note:  fmt.Sprintf("(%d settled + %d drops + %d dups) / settled", a.transport.Settled, a.transport.Drops, a.transport.Dups)})
	out.set("runtime.drops", "count", float64(a.transport.Drops))
	out.set("runtime.dups", "count", float64(a.transport.Dups))
	out.put(Metric{Name: "runtime.detection_ms_p50", Unit: "ms", Value: quantile(a.detectMs, 0.5), Samples: len(a.detectMs)})
	out.put(Metric{Name: "runtime.detection_ms_p90", Unit: "ms", Value: quantile(a.detectMs, 0.9), Samples: len(a.detectMs)})
	out.set("runtime.false_suspicions", "count", float64(a.falseSuspicions))
	if w.coord == nil {
		return
	}

	out.set("netx.frames_per_msg", "ratio", float64(a.transport.FramesSent)/settled)
	out.set("netx.dials_per_run", "count", float64(a.transport.Dials)/runs)
	out.set("netx.frames_resent", "count", float64(a.transport.FramesResent))
	out.set("netx.reconnects", "count", float64(a.transport.Reconnects))
	out.put(Metric{Name: "dist.run_setup_ms_p50", Unit: "ms", Value: quantile(a.runSetupMs, 0.5), Samples: len(a.runSetupMs),
		Note: "Coordinator.Run wall - Result.Elapsed"})
	if rate, err := meshThroughput(e); err != nil {
		out.put(Metric{Name: "netx.mesh_msgs_per_s", Unit: "1/s", NotMeasured: err.Error()})
	} else {
		out.set("netx.mesh_msgs_per_s", "1/s", rate)
	}

	// The same protocol, size and plans over the in-memory transport, in
	// this process, is the base of the TCP ratio.
	mem := &liveWL{spec: w.spec, proto: w.proto, problem: w.problem}
	mem.spec.hosts = 0
	var p passOut
	span := e.tr.begin("probe:dist.tcp_over_memory_ratio", "")
	for i := 0; i < w.spec.batch; i++ {
		mem.runOne(e, w.plans[i%len(w.plans)], &p, &mem.acc)
	}
	e.tr.end(span, int64(w.spec.batch))
	tcp, base := quantile(a.decisionMs, 0.5), quantile(mem.acc.decisionMs, 0.5)
	if base > 0 && len(p.failures) == 0 {
		out.put(Metric{Name: "dist.tcp_over_memory_ratio", Unit: "ratio", Value: tcp / base,
			Note: fmt.Sprintf("decision_ms_p50 %.4f ms over TCP / %.4f ms in memory (%d runs, same process)", tcp, base, w.spec.batch)})
	}
}

// meshThroughput sends meshSends payloads from one netx mesh to another on
// loopback and waits until every one is acked.
func meshThroughput(e *env) (float64, error) {
	const meshSends = 20000
	nop := func(int, []byte) {}
	a, err := netx.Listen("127.0.0.1:0", netx.Config{Self: 0, OnFrame: nop})
	if err != nil {
		return 0, err
	}
	defer func() { _ = a.Close() }() // nothing is in flight once Pending is 0
	b, err := netx.Listen("127.0.0.1:0", netx.Config{Self: 1, OnFrame: nop})
	if err != nil {
		return 0, err
	}
	defer func() { _ = b.Close() }()
	peers := map[int]string{0: a.Addr(), 1: b.Addr()}
	a.SetPeers(peers)
	b.SetPeers(peers)
	payload := make([]byte, 32)
	span := e.tr.begin("probe:netx.mesh_msgs_per_s", "")
	defer func() { e.tr.end(span, meshSends) }()
	t0 := time.Now()
	for i := 0; i < meshSends; i++ {
		if err := a.Send(1, payload); err != nil {
			return 0, err
		}
	}
	for a.Pending() != 0 {
		if time.Since(t0) > 20*time.Second {
			return 0, fmt.Errorf("mesh still holds %d of %d payloads after 20 s", a.Pending(), meshSends)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return meshSends / time.Since(t0).Seconds(), nil
}
