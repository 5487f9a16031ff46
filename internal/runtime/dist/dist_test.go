package dist_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/protocols"
	"repro/internal/runtime"
	"repro/internal/runtime/dist"
	"repro/internal/runtime/netx"
	"repro/internal/sim"
	"repro/internal/taxonomy"
)

// opts is the protocol registry every host in these tests shares.
var opts = dist.Options{
	Resolve: func(name string, n int) (sim.Protocol, error) {
		if name != "ackcommit" {
			return nil, fmt.Errorf("test registry has no %q", name)
		}
		return protocols.AckCommit{Procs: n}, nil
	},
	Decode: protocols.ParsePayloadKey,
}

var wtTC = taxonomy.Problem{Rule: taxonomy.UnanimityRule{}, Consistency: taxonomy.TC, Termination: taxonomy.WT}

// contiguousOwner splits n processors into hosts contiguous slices.
func contiguousOwner(n, hosts int) []int {
	owner := make([]int, n)
	for p := range owner {
		owner[p] = p * hosts / n
	}
	return owner
}

// runDistributed executes one distributed run in-process: Serve on a
// goroutine for host 0, one Join goroutine per remaining host.
func runDistributed(t *testing.T, spec dist.Spec) *dist.Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	addrCh := make(chan string, 1)
	o := opts
	o.OnListen = func(addr string) { addrCh <- addr }

	type served struct {
		rep *dist.Report
		err error
	}
	servedCh := make(chan served, 1)
	go func() {
		rep, err := dist.Serve(ctx, "127.0.0.1:0", spec, o)
		servedCh <- served{rep, err}
	}()
	addr := <-addrCh

	joinErr := make(chan error, spec.Hosts())
	for h := 1; h < spec.Hosts(); h++ {
		go func() { joinErr <- dist.Join(ctx, addr, opts) }()
	}

	s := <-servedCh
	if s.err != nil {
		t.Fatalf("Serve: %v", s.err)
	}
	for h := 1; h < spec.Hosts(); h++ {
		if err := <-joinErr; err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	return s.rep
}

// TestDistributedRunConforms runs ackcommit N=9 across three processes'
// worth of groups with message faults and link faults, and requires the
// merged Lamport-ordered schedule to replay as a legal run of the model —
// the same conformance bar a one-host run clears.
func TestDistributedRunConforms(t *testing.T) {
	const n, hosts = 9, 3
	inputs := make([]sim.Bit, n)
	for i := range inputs {
		inputs[i] = sim.One
	}
	spec := dist.Spec{
		Proto:  "ackcommit",
		N:      n,
		Inputs: inputs,
		Owner:  contiguousOwner(n, hosts),
		Faults: runtime.FaultPlan{Seed: 99, DropRate: 0.05, DupRate: 0.05, MaxDelay: 200 * time.Microsecond},
		Links: netx.LinkFaultPlan{
			Seed:            7,
			SeverRate:       0.15,
			StallRate:       0.10,
			ResetRate:       0.10,
			ActiveIntervals: 3,
		},
		PartitionInterval: 50 * time.Millisecond,
		Deadline:          90 * time.Second,
	}
	rep := runDistributed(t, spec)
	res := rep.Result
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if !res.Quiescent {
		t.Fatal("run did not quiesce")
	}
	proto := protocols.AckCommit{Procs: n}
	conf, err := runtime.Conform(res, proto, wtTC)
	if err != nil {
		t.Fatalf("Conform: %v", err)
	}
	if !conf.OK() {
		t.Fatalf("distributed trace diverges from the model: %v", conf.Divergences[0])
	}
	for p, d := range res.Decisions {
		if d != sim.Commit {
			t.Errorf("processor %d decided %s, want commit (all-ones, no crashes)", p, d)
		}
	}
	st := res.Transport
	if st.FramesSent == 0 {
		t.Error("no frames crossed the mesh; the run was not distributed")
	}
	if st.Accepted != st.Settled {
		t.Errorf("accepted %d != settled %d at quiescence", st.Accepted, st.Settled)
	}
	if st.EncodeFailures != 0 || st.GarbageFrames != 0 {
		t.Errorf("silent-loss counters nonzero: encode %d, garbage %d", st.EncodeFailures, st.GarbageFrames)
	}
	if len(rep.PerHost) != hosts {
		t.Fatalf("%d host reports, want %d", len(rep.PerHost), hosts)
	}
}

// TestDistributedOmissionsCounted runs under the receive-omission injector
// across three hosts: every Omit event of the merged schedule must be in
// the merged transport counter, whichever host suppressed the delivery (the
// merge once summed every counter but this one).
func TestDistributedOmissionsCounted(t *testing.T) {
	const n, hosts = 6, 3
	inputs := make([]sim.Bit, n)
	for i := range inputs {
		inputs[i] = sim.One
	}
	rep := runDistributed(t, dist.Spec{
		Proto:    "ackcommit",
		N:        n,
		Inputs:   inputs,
		Owner:    contiguousOwner(n, hosts),
		Faults:   runtime.FaultPlan{Seed: 1984, OmitRate: 0.3, OmitMaxSeq: 4},
		Deadline: 90 * time.Second,
	})
	res := rep.Result
	if res.Err != nil || !res.Quiescent {
		t.Fatalf("run error %v, quiescent %v", res.Err, res.Quiescent)
	}
	omits := int64(0)
	for _, e := range res.Schedule {
		if e.Type == sim.Omit {
			omits++
		}
	}
	if omits == 0 {
		t.Fatal("omission injector never fired; the test pins nothing")
	}
	if res.Transport.Omissions != omits {
		t.Errorf("merged transport counts %d omissions, the merged schedule records %d Omit events", res.Transport.Omissions, omits)
	}
}

// TestDistributedCrashRecovery injects a crash on a remotely hosted
// processor mid-run; the owner host must detect it, the notices must cross
// the mesh, and the merged trace must still conform.
func TestDistributedCrashRecovery(t *testing.T) {
	const n, hosts = 9, 3
	inputs := make([]sim.Bit, n)
	for i := range inputs {
		inputs[i] = sim.One
	}
	spec := dist.Spec{
		Proto:         "ackcommit",
		N:             n,
		Inputs:        inputs,
		Owner:         contiguousOwner(n, hosts),
		Faults:        runtime.FaultPlan{Seed: 3, DropRate: 0.05, MaxDelay: 100 * time.Microsecond},
		Heartbeat:     time.Millisecond,
		DetectTimeout: 15 * time.Millisecond,
		Deadline:      90 * time.Second,
		// Processor 4 lives on host 1: the crash command crosses the
		// control plane, the notices cross the mesh.
		Failures: []sim.FailureAt{{Proc: 4, AfterStep: 6}},
	}
	rep := runDistributed(t, spec)
	res := rep.Result
	if res.Err != nil {
		t.Fatalf("run error: %v", res.Err)
	}
	if !res.Quiescent {
		t.Fatal("run did not quiesce after the crash")
	}
	if len(res.Crashes) != 1 || res.Crashes[0].Proc != 4 {
		t.Fatalf("crashes = %+v, want exactly processor 4", res.Crashes)
	}
	if res.Crashes[0].Detection <= 0 {
		t.Error("crash detection latency not measured")
	}
	conf, err := runtime.Conform(res, protocols.AckCommit{Procs: n}, wtTC)
	if err != nil {
		t.Fatalf("Conform: %v", err)
	}
	if !conf.OK() {
		t.Fatalf("post-crash distributed trace diverges: %v", conf.Divergences[0])
	}
}
