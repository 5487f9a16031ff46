// Command cclive soaks a protocol in the live runtime: seeded batches of
// genuinely concurrent executions — one goroutine per processor over a
// lossy, duplicating, delaying transport with heartbeat failure detection
// and injected fail-stop crashes — each checked for conformance by
// replaying its recorded schedule through the deterministic simulator and
// validating it against a consensus problem.
//
// Run plans (per-run seeds, inputs, crash schedules) derive from -seed
// exactly as ccchaos derives its sweeps, so a live soak and a chaos sweep
// with the same seed inject the same failures. Live goroutine interleaving
// is real nondeterminism — runs are not bit-reproducible — but every fault
// decision in the transport is seed-deterministic per delivery attempt,
// and every recorded trace must replay as a legal run of the model with
// the same decisions.
//
// With -serve/-join the soak spans OS processes: a coordinator owns host
// 0's slice of processors and -joins joiner processes own the rest, meshed
// over TCP on localhost with seeded link faults (interval partitions,
// stalls, connection resets) layered above the sockets. Every link-fault
// decision is a pure function of (link seed, link, interval), so two soaks
// with the same -seed inject byte-identical link schedules; -print-faults
// renders the whole fault schedule — crash steps, omission suppressions
// (-omit-rate, -omit-max-seq), and link faults — without running anything,
// so the claim is diffable.
//
// Usage:
//
//	cclive -proto tree -n 3 -problem WT-TC -runs 200 -seed 1984 -drop 0.1
//	cclive -proto star -n 4 -problem HT-IC -runs 100 -dup 0.2 -delay 500us
//	cclive -proto tree -n 3 -problem WT-TC -no-dedup -dup 0.5   # must fail
//	cclive -serve -spawn 2 -proto ackcommit -n 100 -runs 5 \
//	    -sever-rate 0.2 -stall-rate 0.1 -conform-sample 0.4    # distributed
//	cclive -join 127.0.0.1:9000                                # one joiner
//
// Exit codes: 0 clean, 1 usage or I/O error, 2 divergences or violations
// found, 3 soak interrupted (SIGINT or -timeout) before completing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	consensus "repro"
	"repro/internal/fingerprint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runOutcome is one live run's verdict: what the run itself measured is
// read from result (nil when the run never produced one); the rest is what
// judging it added.
type runOutcome struct {
	done      bool
	diverged  bool
	panicked  bool
	aborted   bool
	conformed bool // conformance replay actually ran (sampling may skip it)
	err       error
	divs      []consensus.Violation
	result    *consensus.LiveResult
	plan      consensus.ChaosRunPlan
	detectMax time.Duration
	decideMax time.Duration
	quiesce   time.Duration // last decision → Watch's verdict
	waves     int           // probe waves the coordinator sent (distributed)
}

// soakFlags carries every parsed flag the soak modes share, and where they
// print.
type soakFlags struct {
	stdout, stderr io.Writer

	protoName, problem string
	seed               int64
	runs               int
	drop, dup          float64
	delay              time.Duration
	heartbeat, detect  time.Duration
	deadline, timeout  time.Duration
	noDedup, verbose   bool
	traceDir           string
	jsonPath           string
	sample             float64
	crashHorizon       int
	omitRate           float64
	omitMaxSeq         int

	// Distributed mode.
	serve       bool
	joinAddr    string
	joins       int
	listen      string
	spawn       int
	partInt     time.Duration
	severRate   float64
	stallRate   float64
	resetRate   float64
	partIvals   int
	isolate     []int
	printFaults bool
}

// run is the whole command: flags from args, the report to stdout,
// diagnostics to stderr, and the exit code as its result.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cclive", flag.ExitOnError)
	var (
		protoName = fs.String("proto", "tree", "protocol: "+strings.Join(consensus.ProtocolNames(), ", "))
		n         = fs.Int("n", 3, "number of processors")
		problem   = fs.String("problem", "WT-TC", "problem: {WT,ST,HT}-{IC,TC}")
		ruleName  = fs.String("rule", "unanimity", "decision rule: unanimity, threshold-K, or broadcast-P (termination standalone satisfies threshold-1, not unanimity)")
		runs      = fs.Int("runs", 200, "number of live executions")
		seed      = fs.Int64("seed", 1, "soak seed; derives per-run seeds, inputs, crash schedules, and link-fault schedules")
		parallel  = fs.Int("parallel", 0, "concurrent live runs, in-memory mode only (0 = GOMAXPROCS)")
		maxFail   = fs.Int("max-failures", -1, "maximum injected crashes per run (-1 = N-1, 0 = crash-free)")
		drop      = fs.Float64("drop", 0.1, "per-attempt probability a delivery is lost in transit")
		dup       = fs.Float64("dup", 0.1, "per-delivery probability the ack is lost (duplicate retransmit)")
		delay     = fs.Duration("delay", 300*time.Microsecond, "maximum per-attempt transit latency")
		heartbeat = fs.Duration("heartbeat", time.Millisecond, "heartbeat interval")
		detect    = fs.Duration("detect", 12*time.Millisecond, "failure-detection timeout (silence before a crash is declared)")
		deadline  = fs.Duration("deadline", 20*time.Second, "per-run deadline; a run that has not quiesced by then fails")
		timeout   = fs.Duration("timeout", 0, "whole-soak wall-clock budget (0 = none); on expiry partial results are reported")
		inputsArg = fs.String("inputs", "", "fixed input vector like 101 (empty = random per run)")
		traceDir  = fs.String("trace-dir", "", "directory for divergence traces (empty = don't write)")
		noDedup   = fs.Bool("no-dedup", false, "disable receiver-side dedup (teeth check: conformance must then fail under -dup)")
		jsonPath  = fs.String("json", "", "write a machine-readable soak summary to this file (\"-\" = stdout)")
		sample    = fs.Float64("conform-sample", 1, "fraction of runs whose traces are conformance-replayed (seeded per run; 1 = all)")
		crashHor  = fs.Int("crash-horizon", 0, "fold planned crash steps into [0,H) so injections land inside short large-N runs (0 = as planned)")
		omitRate  = fs.Float64("omit-rate", 0, "per-message probability the receiver omission-suppresses a delivery (permanent loss, recorded as an Omit event the conformance replay validates)")
		omitSeq   = fs.Int("omit-max-seq", 0, "only omit messages with sequence number at most this, keeping each run's omission schedule finite and printable (0 = no bound)")
		verbose   = fs.Bool("v", false, "print every failing run, not just the first five")

		serve       = fs.Bool("serve", false, "coordinator mode: run the soak across -joins joiner processes over TCP")
		joinAddr    = fs.String("join", "", "joiner mode: serve runs for the coordinator at this control address")
		joins       = fs.Int("joins", 2, "number of joiner processes (serve mode; hosts = joins+1)")
		listen      = fs.String("listen", "127.0.0.1:0", "control-plane listen address (serve mode)")
		spawn       = fs.Int("spawn", 0, "fork this many joiner processes automatically (serve mode; implies -joins)")
		partInt     = fs.Duration("partition-interval", 250*time.Millisecond, "wall length of one link-fault interval")
		severRate   = fs.Float64("sever-rate", 0, "per-(link,interval) probability the link is severed (one side of a partition)")
		stallRate   = fs.Float64("stall-rate", 0, "per-(link,interval) probability the link stalls for half the interval")
		resetRate   = fs.Float64("reset-rate", 0, "per-(link,interval) probability the connection is reset")
		partIvals   = fs.Int("partition-intervals", 8, "link faults only fire in the first this-many intervals, so every schedule heals")
		isolateArg  = fs.String("isolate", "", "comma-separated host ids permanently partitioned from the rest (teeth check: the soak must fail)")
		printFaults = fs.Bool("print-faults", false, "print every planned run's fault schedule — crashes, omissions, link faults — and exit (pure; nothing runs)")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return an error

	isolate, err := parseIsolate(*isolateArg)
	if err != nil {
		fmt.Fprintln(stderr, "cclive:", err)
		return 1
	}
	if *runs < 0 {
		fmt.Fprintf(stderr, "cclive: -runs %d is negative\n", *runs)
		return 1
	}
	for _, rate := range []struct {
		flag string
		p    float64
	}{{"drop", *drop}, {"dup", *dup}, {"omit-rate", *omitRate}, {"sever-rate", *severRate}, {"stall-rate", *stallRate}, {"reset-rate", *resetRate}, {"conform-sample", *sample}} {
		if !(rate.p >= 0 && rate.p <= 1) { // NaN included
			fmt.Fprintf(stderr, "cclive: -%s %v is not a probability in [0,1]\n", rate.flag, rate.p)
			return 1
		}
	}
	f := soakFlags{
		stdout: stdout, stderr: stderr,
		protoName: *protoName, problem: *problem, seed: *seed, runs: *runs,
		drop: *drop, dup: *dup, delay: *delay,
		heartbeat: *heartbeat, detect: *detect, deadline: *deadline, timeout: *timeout,
		noDedup: *noDedup, verbose: *verbose, traceDir: *traceDir,
		jsonPath: *jsonPath, sample: *sample, crashHorizon: *crashHor,
		omitRate: *omitRate, omitMaxSeq: *omitSeq,
		serve: *serve, joinAddr: *joinAddr, joins: *joins, listen: *listen, spawn: *spawn,
		partInt: *partInt, severRate: *severRate, stallRate: *stallRate, resetRate: *resetRate,
		partIvals: *partIvals, isolate: isolate, printFaults: *printFaults,
	}
	if f.spawn > 0 {
		f.joins = f.spawn
	}

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	// Joiner mode needs no protocol flags: everything arrives in the spec.
	if f.joinAddr != "" {
		if err := consensus.DistJoin(ctx, f.joinAddr, distOptions(stderr)); err != nil {
			fmt.Fprintln(stderr, "cclive: join:", err)
			return 1
		}
		return 0
	}

	proto, err := consensus.ProtocolByName(f.protoName, *n)
	if err != nil {
		fmt.Fprintln(stderr, "cclive:", err)
		return 1
	}
	prob, err := consensus.ParseProblem(f.problem)
	if err != nil {
		fmt.Fprintln(stderr, "cclive:", err)
		return 1
	}
	rule, err := consensus.ParseRule(*ruleName)
	if err != nil {
		fmt.Fprintln(stderr, "cclive:", err)
		return 1
	}
	// broadcast-P names its general by index: one outside the protocol would
	// panic in every run's judge and read as the protocol's fault.
	if g, ok := strings.CutPrefix(strings.ToLower(strings.TrimSpace(*ruleName)), "broadcast-"); ok {
		if p, _ := strconv.Atoi(g); p >= proto.N() {
			fmt.Fprintf(stderr, "cclive: -rule %s names p%d, but %s has N=%d processors\n", *ruleName, p, proto.Name(), proto.N())
			return 1
		}
	}
	prob.Rule = rule
	var fixed [][]consensus.Bit
	if *inputsArg != "" {
		in, err := consensus.ParseInputs(*inputsArg)
		if err != nil {
			fmt.Fprintln(stderr, "cclive:", err)
			return 1
		}
		fixed = [][]consensus.Bit{in}
	}
	nProcs := proto.N()
	mf := *maxFail
	if mf < 0 {
		mf = nProcs - 1
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	plans := consensus.ChaosPlanRuns(f.seed, f.runs, nProcs, mf, fixed)
	if f.crashHorizon > 0 {
		// Fold each planned crash step into [0, H). The chaos planner draws
		// steps from a 4n²+8 horizon, which at large N lands nearly every
		// injection beyond quiescence; folding keeps the schedule a pure
		// function of the seed while making large-N soaks actually crash.
		for i := range plans {
			for j := range plans[i].Failures {
				plans[i].Failures[j].AfterStep %= f.crashHorizon
			}
		}
	}

	if f.printFaults {
		return dumpFaultSchedules(f, nProcs, plans)
	}
	if f.serve {
		return runServe(ctx, f, proto, prob, plans)
	}
	return runInMemory(ctx, f, proto, prob, plans, *parallel)
}

// runInMemory is the single-process soak: a worker pool of concurrent
// one-host live runs.
func runInMemory(ctx context.Context, f soakFlags, proto consensus.Protocol, prob consensus.Problem, plans []consensus.ChaosRunPlan, parallel int) int {
	outcomes := make([]runOutcome, len(plans))
	par := parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(plans) {
		par = len(plans)
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				outcomes[i] = executeRun(ctx, proto, prob, f, plans[i], consensus.LiveConfig{
					Faults:        planFaults(f, plans[i]),
					Failures:      plans[i].Failures,
					Heartbeat:     f.heartbeat,
					DetectTimeout: f.detect,
					Deadline:      f.deadline,
				})
			}
		}()
	}
feed:
	for i := range plans {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()

	return report(outcomes, proto, f, prob, "memory", 1)
}

// distOptions is the registry both sides of the control plane share.
func distOptions(stderr io.Writer) consensus.DistOptions {
	return consensus.DistOptions{
		Resolve: consensus.ProtocolByName,
		Decode:  consensus.ParsePayloadKey,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "cclive: "+format+"\n", args...)
		},
	}
}

// planSpec derives one distributed run's spec from its chaos plan. The
// link-fault seed is the plan's pure LinkSeed, so two soaks with the same
// -seed schedule byte-identical link faults.
func planSpec(f soakFlags, nProcs, hosts int, plan consensus.ChaosRunPlan) consensus.DistSpec {
	return consensus.DistSpec{
		Proto:             f.protoName,
		N:                 nProcs,
		Inputs:            plan.Inputs,
		Owner:             consensus.DistOwner(nProcs, hosts),
		Faults:            planFaults(f, plan),
		Links:             planLinks(f, plan),
		PartitionInterval: f.partInt,
		Heartbeat:         f.heartbeat,
		DetectTimeout:     f.detect,
		Deadline:          f.deadline,
		Failures:          plan.Failures,
	}
}

// planFaults derives one run's transport fault plan from its chaos plan:
// the per-attempt drop/dup/delay hash and the per-message omission verdict
// all key off the plan's run seed.
func planFaults(f soakFlags, plan consensus.ChaosRunPlan) consensus.LiveFaultPlan {
	return consensus.LiveFaultPlan{
		Seed:         plan.Seed,
		DropRate:     f.drop,
		DupRate:      f.dup,
		MaxDelay:     f.delay,
		DisableDedup: f.noDedup,
		OmitRate:     f.omitRate,
		OmitMaxSeq:   f.omitMaxSeq,
	}
}

func planLinks(f soakFlags, plan consensus.ChaosRunPlan) consensus.LinkFaultPlan {
	return consensus.LinkFaultPlan{
		Seed:            plan.LinkSeed,
		SeverRate:       f.severRate,
		StallRate:       f.stallRate,
		ResetRate:       f.resetRate,
		ActiveIntervals: f.partIvals,
		Isolate:         f.isolate,
	}
}

// dumpFaultSchedules renders every planned run's full fault schedule — the
// crash injections (after -crash-horizon folding), the per-link omission
// schedule, and the link-fault intervals — in one canonical dump, a pure
// function of the soak seed; nothing runs. Diffing two invocations with the
// same -seed proves schedule identity.
func dumpFaultSchedules(f soakFlags, nProcs int, plans []consensus.ChaosRunPlan) int {
	hosts := f.joins + 1
	hostIDs := make([]int, hosts)
	for h := range hostIDs {
		hostIDs[h] = h
	}
	for i, plan := range plans {
		fmt.Fprintf(f.stdout, "run %d seed=%d linkseed=%d\n", i, plan.Seed, plan.LinkSeed)
		for _, inj := range plan.Failures {
			fmt.Fprintf(f.stdout, "crash p%d after step %d\n", inj.Proc, inj.AfterStep)
		}
		fmt.Fprint(f.stdout, planFaults(f, plan).RenderOmissions(nProcs))
		fmt.Fprint(f.stdout, planLinks(f, plan).Render(hostIDs, f.partIvals))
	}
	return 0
}

// runServe is the coordinator: admit the joiners once, then push every
// planned run through the standing session sequentially.
func runServe(ctx context.Context, f soakFlags, proto consensus.Protocol, prob consensus.Problem, plans []consensus.ChaosRunPlan) int {
	nProcs := proto.N()
	hosts := f.joins + 1
	opts := distOptions(f.stderr)

	// -spawn forks the joiners as soon as the control address is bound, so
	// one command runs the whole multi-process soak.
	var children []*exec.Cmd
	if f.spawn > 0 {
		opts.OnListen = func(addr string) {
			for i := 0; i < f.spawn; i++ {
				child := exec.Command(os.Args[0], "-join", addr)
				child.Stdout = f.stderr
				child.Stderr = f.stderr
				if err := child.Start(); err != nil {
					fmt.Fprintln(f.stderr, "cclive: spawn:", err)
					return
				}
				children = append(children, child)
			}
		}
	}
	coord, err := consensus.NewDistCoordinator(ctx, f.listen, f.joins, opts)
	if err != nil {
		fmt.Fprintln(f.stderr, "cclive: serve:", err)
		return 1
	}

	outcomes := make([]runOutcome, len(plans))
	code := 0
	for i, plan := range plans {
		outcomes[i].plan = plan
		if ctx.Err() != nil {
			outcomes[i].aborted = true
			continue
		}
		rep, err := coord.Run(ctx, planSpec(f, nProcs, hosts, plan))
		if err != nil {
			if ctx.Err() != nil {
				outcomes[i].aborted = true
				continue
			}
			// A control-plane failure kills the session; no later run
			// can succeed, so fail fast.
			fmt.Fprintf(f.stderr, "cclive: run %d: %v\n", i, err)
			code = 1
			for j := i; j < len(plans); j++ {
				outcomes[j].plan = plans[j]
				outcomes[j].aborted = true
			}
			break
		}
		outcomes[i] = judgeResult(rep.Result, proto, prob, f, plan)
		outcomes[i].waves = rep.Waves
	}
	_ = coord.Close()
	for _, child := range children {
		_ = child.Wait()
	}
	if rc := report(outcomes, proto, f, prob, "distributed", hosts); code == 0 {
		code = rc
	}
	return code
}

// executeRun performs one in-memory live run to a verdict, converting
// panics in protocol or runtime code into reported failures instead of a
// crashed soak.
func executeRun(ctx context.Context, proto consensus.Protocol, prob consensus.Problem, f soakFlags, plan consensus.ChaosRunPlan, cfg consensus.LiveConfig) (out runOutcome) {
	out.plan = plan
	defer func() {
		if r := recover(); r != nil {
			out.done = true
			out.panicked = true
			out.err = fmt.Errorf("panic: %v", r)
		}
	}()
	if ctx.Err() != nil {
		out.aborted = true
		return out
	}
	res, err := consensus.Live(ctx, proto, plan.Inputs, cfg)
	if err != nil {
		out.done = true
		out.err = err
		return out
	}
	if res.Err != nil && ctx.Err() != nil {
		out.aborted = true
		return out
	}
	return judgeResult(res, proto, prob, f, plan)
}

// judgeResult converts a finished run (one host or many) into an
// outcome: measurements, transport counters, and — for sampled runs — the
// conformance verdict.
func judgeResult(res *consensus.LiveResult, proto consensus.Protocol, prob consensus.Problem, f soakFlags, plan consensus.ChaosRunPlan) (out runOutcome) {
	out.plan = plan
	out.done = true
	out.result = res
	for _, c := range res.Crashes {
		if c.Detection > out.detectMax {
			out.detectMax = c.Detection
		}
	}
	for _, d := range res.Decided {
		if d > out.decideMax {
			out.decideMax = d
		}
	}
	if res.Quiescent && out.decideMax > 0 {
		out.quiesce = res.Elapsed - out.decideMax
	}
	if res.Err != nil {
		out.err = res.Err
	}
	if !shouldConform(plan.Seed, f.sample) {
		return out
	}
	out.conformed = true
	// The replay steps one configuration in place, so memory stays flat on
	// the crash-amplified traces of millions of events that distributed
	// soaks at N=100 record.
	conf, cerr := consensus.LiveConformStream(res, proto, prob)
	if cerr != nil {
		out.err = cerr
		return out
	}
	if !conf.OK() {
		out.diverged = true
		out.divs = conf.Divergences
	}
	return out
}

// shouldConform decides — purely from the run seed — whether this run's
// trace is conformance-replayed. At rate 1 every run is; at large N a
// sampled fraction keeps soak throughput while still replaying a seeded,
// reproducible subset.
func shouldConform(runSeed int64, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	x := fingerprint.Mix64(uint64(runSeed) ^ 0x9e3779b97f4a7c15)
	return float64(x>>11)/float64(1<<53) < rate
}

func parseIsolate(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -isolate entry %q: %v", part, err)
		}
		out = append(out, id)
	}
	return out, nil
}

// jsonSummary is the machine-readable soak summary written by -json.
type jsonSummary struct {
	Proto     string `json:"proto"`
	Problem   string `json:"problem"`
	N         int    `json:"n"`
	Runs      int    `json:"runs"`
	Seed      int64  `json:"seed"`
	Mode      string `json:"mode"`
	Hosts     int    `json:"hosts"`
	Completed int    `json:"completed"`
	Aborted   int    `json:"aborted"`
	Quiesced  int    `json:"quiesced"`
	Failing   int    `json:"failing"`
	Conformed int    `json:"conformed"`

	Crashes         int   `json:"crashes"`
	FalseSuspicions int   `json:"falseSuspicions"`
	LinkSuspicions  int   `json:"linkSuspicions"`
	Events          int64 `json:"events"`

	DetectionNs  *latencyQuantiles `json:"detectionNs,omitempty"`
	RecoveryNs   *latencyQuantiles `json:"recoveryNs,omitempty"`
	DecisionNs   *latencyQuantiles `json:"decisionNs,omitempty"`
	QuiescenceNs *latencyQuantiles `json:"quiescenceNs,omitempty"`
	ProbeWaves   int               `json:"probeWaves,omitempty"`

	Transport consensus.LiveTransportStats `json:"transport"`
}

type latencyQuantiles struct {
	Count int   `json:"count"`
	Min   int64 `json:"min"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	Max   int64 `json:"max"`
}

// quantiles sorts one copy of a latency sample for both summaries; nil
// for an empty sample.
func quantiles(ds []time.Duration) *latencyQuantiles {
	if len(ds) == 0 {
		return nil
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	q := func(p float64) int64 {
		return int64(sorted[int(p*float64(len(sorted)-1))])
	}
	return &latencyQuantiles{
		Count: len(sorted),
		Min:   int64(sorted[0]),
		P50:   q(0.5),
		P90:   q(0.9),
		Max:   int64(sorted[len(sorted)-1]),
	}
}

// String renders min/p50/p90/max for the text summary.
func (q *latencyQuantiles) String() string {
	us := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
	return fmt.Sprintf("min %s  p50 %s  p90 %s  max %s", us(q.Min), us(q.P50), us(q.P90), us(q.Max))
}

// report prints the soak summary, writes divergence traces and the JSON
// summary, and chooses the exit code.
func report(outcomes []runOutcome, proto consensus.Protocol, f soakFlags, prob consensus.Problem, mode string, hosts int) int {
	protoCanon := proto.Name()
	var (
		completed, quiesced, failing, aborted, conformed int
		crashes, falseSusp, linkSusp, waves              int
		events                                           int64
		transport                                        consensus.LiveTransportStats
		detections, recoveries, decisions, quiesces      []time.Duration
	)
	type failure struct {
		idx int
		out runOutcome
	}
	var failures []failure
	w := f.stdout
	for i, out := range outcomes {
		if !out.done {
			aborted++
			continue
		}
		completed++
		if out.conformed {
			conformed++
		}
		if res := out.result; res != nil {
			if res.Quiescent {
				quiesced++
			}
			crashes += len(res.Crashes)
			falseSusp += res.FalseSuspicions
			linkSusp += res.LinkSuspicions
			events += int64(len(res.Schedule))
			transport.Add(res.Transport)
			if res.Recovery > 0 {
				recoveries = append(recoveries, res.Recovery)
			}
		}
		if out.detectMax > 0 {
			detections = append(detections, out.detectMax)
		}
		if out.decideMax > 0 {
			decisions = append(decisions, out.decideMax)
		}
		if out.quiesce > 0 {
			quiesces = append(quiesces, out.quiesce)
		}
		waves += out.waves
		if out.diverged || out.err != nil {
			failing++
			failures = append(failures, failure{i, out})
		}
	}

	where := ""
	if mode == "distributed" {
		where = fmt.Sprintf(" across %d hosts", hosts)
	}
	fmt.Fprintf(w, "%s vs %s: %d live runs%s, seed %d (%d completed, %d aborted)\n",
		protoCanon, prob.Name(), f.runs, where, f.seed, completed, aborted)
	fmt.Fprintf(w, "  quiesced %d, failing %d, conformance-replayed %d, crashes injected %d\n",
		quiesced, failing, conformed, crashes)
	fmt.Fprintf(w, "  suspicions: %d false, %d link-loss\n", falseSusp, linkSusp)
	st := transport
	fmt.Fprintf(w, "  transport: %d accepted, %d settled, %d dropped, %d duplicated, %d omitted\n",
		st.Accepted, st.Settled, st.Drops, st.Dups, st.Omissions)
	if mode == "distributed" {
		fmt.Fprintf(w, "  mesh: %d frames sent (%d resent), %d dials (%d reconnects, %d resets), %d link-downs, %d severed intervals, %d frames held\n",
			st.FramesSent, st.FramesResent, st.Dials, st.Reconnects, st.Resets,
			st.LinkDowns, st.SeveredIntervals, st.HeldFrames)
	}
	// Formerly-silent loss paths: always printed, never dropped quietly.
	fmt.Fprintf(w, "  silent-loss: %d encode failures, %d garbage frames\n",
		st.EncodeFailures, st.GarbageFrames)
	detectQ, recoverQ, decideQ, quiesceQ := quantiles(detections), quantiles(recoveries), quantiles(decisions), quantiles(quiesces)
	if detectQ != nil {
		fmt.Fprintf(w, "  detection latency:  %s\n", detectQ)
	}
	if recoverQ != nil {
		fmt.Fprintf(w, "  recovery latency:   %s (crash → last survivor decision, %d runs)\n",
			recoverQ, recoverQ.Count)
	}
	if decideQ != nil {
		fmt.Fprintf(w, "  decision latency:   %s (go → last decision)\n", decideQ)
	}
	if quiesceQ != nil {
		how := "one read of zero"
		if mode == "distributed" {
			how = fmt.Sprintf("%d probe waves", waves)
		}
		fmt.Fprintf(w, "  quiescence latency: %s (last decision → verdict, %s)\n", quiesceQ, how)
	}

	written := 0
	for i, fl := range failures {
		if f.verbose || i < 5 {
			what := "failed"
			if fl.out.diverged {
				what = fmt.Sprintf("DIVERGED: %s", fl.out.divs[0])
			} else if fl.out.err != nil {
				what = fl.out.err.Error()
			}
			var tr consensus.LiveTransportStats
			if fl.out.result != nil {
				tr = fl.out.result.Transport
			}
			fmt.Fprintf(w, "  run %d (seed %d, inputs %s, accepted/settled %d/%d): %s\n", fl.idx, fl.out.plan.Seed,
				consensus.FormatInputs(fl.out.plan.Inputs), tr.Accepted, tr.Settled, what)
		} else if i == 5 {
			fmt.Fprintf(w, "  … and %d more failing runs (use -v to list all)\n", len(failures)-5)
		}
		if f.traceDir != "" && fl.out.result != nil {
			path, err := writeDivergenceTrace(f.traceDir, protoCanon, f.protoName, prob, f.seed, fl.idx, fl.out)
			if err != nil {
				fmt.Fprintln(f.stderr, "cclive:", err)
				return 1
			}
			written++
			if f.verbose || i < 5 {
				fmt.Fprintf(w, "    trace: %s\n", path)
			}
		}
	}
	if written > 0 {
		fmt.Fprintf(w, "  %d trace(s) written to %s\n", written, f.traceDir)
	}

	if f.jsonPath != "" {
		sum := jsonSummary{
			Proto: protoCanon, Problem: prob.Name(), N: proto.N(),
			Runs: f.runs, Seed: f.seed, Mode: mode, Hosts: hosts,
			Completed: completed, Aborted: aborted, Quiesced: quiesced,
			Failing: failing, Conformed: conformed,
			Crashes: crashes, FalseSuspicions: falseSusp, LinkSuspicions: linkSusp,
			Events:       events,
			DetectionNs:  detectQ,
			RecoveryNs:   recoverQ,
			DecisionNs:   decideQ,
			Transport:    transport,
			QuiescenceNs: quiesceQ,
			ProbeWaves:   waves,
		}
		if err := writeJSON(w, f.jsonPath, sum); err != nil {
			fmt.Fprintln(f.stderr, "cclive:", err)
			return 1
		}
	}

	switch {
	case aborted > 0:
		fmt.Fprintln(w, "INTERRUPTED: partial results above")
		return 3
	case failing > 0:
		fmt.Fprintf(w, "VIOLATES: %d failing run(s)\n", failing)
		return 2
	case conformed < completed:
		fmt.Fprintf(w, "OK: %d of %d live traces replayed, each as a legal run of the model\n", conformed, completed)
		return 0
	default:
		fmt.Fprintln(w, "OK: every live trace replays as a legal run of the model")
		return 0
	}
}

func writeJSON(stdout io.Writer, path string, sum jsonSummary) error {
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeDivergenceTrace writes a failing run as a chaos trace: the recorded
// live schedule, the injections, and the divergences as violations, so the
// artifact replays through the same tooling.
func writeDivergenceTrace(dir, protoCanon, protoArg string, prob consensus.Problem, sweepSeed int64, idx int, out runOutcome) (string, error) {
	res := out.result
	f := &consensus.ChaosFailure{RunIndex: idx, Seed: out.plan.Seed, Inputs: res.Inputs, Injections: out.plan.Failures,
		Schedule: res.Schedule, OriginalSteps: len(res.Schedule), Violations: out.divs}
	if out.err != nil {
		f.Violations = append(f.Violations, consensus.Violation{Kind: "run", Detail: out.err.Error()})
	}
	rep := &consensus.ChaosReport{Proto: protoCanon, Problem: prob, Seed: sweepSeed}
	return consensus.WriteChaosTrace(dir, "live-", protoArg, rep, f, len(res.Schedule))
}
