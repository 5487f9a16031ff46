package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

// metricNameRE is the contract's shape of a metric name.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testOracle(t *testing.T) *oracle {
	t.Helper()
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestTinyWorkloads runs every workload traced at the tiny scale (a traced
// run is an untraced pass, a traced pass and the probes, so it covers both
// modes) and validates what comes out: the oracle holds, every metric is
// declared with its unit, spans nest, and live workloads leave no goroutine.
func TestTinyWorkloads(t *testing.T) {
	orc := testOracle(t)
	ws := workloads(scaleTiny)
	if len(ws) > 8 {
		t.Fatalf("%d workloads, the contract allows 8", len(ws))
	}
	if len(contractEndToEnd) > 16 || len(contractPerLayer()) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, the contract allows 16 and 128", len(contractEndToEnd), len(contractPerLayer()))
	}
	layerUnit := map[string]string{}
	for _, d := range layerDefs {
		layerUnit[d.Name] = d.Unit
	}
	seen := map[string]bool{}
	for _, w := range ws {
		res := runWorkload(w, &env{seed: 1984, scale: scaleTiny, oracle: orc}, true)
		if res.NotMeasured != "" {
			if runtime.GOMAXPROCS(0) >= w.needsCores() {
				t.Errorf("%s: not measured on a box that can: %s", w.name(), res.NotMeasured)
			}
			continue
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name(), res.Failed, res.Attempted, res.Failures)
		}
		if res.Passes != 2 {
			t.Errorf("%s: traced run made %d passes, want an untraced and a traced one", w.name(), res.Passes)
		}
		for _, m := range res.EndToEnd {
			def, ok := endToEndDef(m.Name)
			switch {
			case !metricNameRE.MatchString(m.Name):
				t.Errorf("%s: bad metric name %q", w.name(), m.Name)
			case !ok:
				t.Errorf("%s: end-to-end metric %s has no declared bound", w.name(), m.Name)
			case def.Unit != m.Unit || m.Unit == "":
				t.Errorf("%s: %s reported in %q, declared in %q", w.name(), m.Name, m.Unit, def.Unit)
			}
		}
		for _, name := range contractEndToEnd {
			if m, ok := res.metric(name); !ok || (m.Value <= 0 && m.NotMeasured == "") {
				t.Errorf("%s: contract metric %s missing or zero: %+v", w.name(), name, m)
			}
		}
		for _, m := range res.PerLayer {
			seen[m.Name] = true
			if unit, ok := layerUnit[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: per-layer metric %s (%s) is not in layerDefs with that unit", w.name(), m.Name, m.Unit)
			}
		}
		if err := checkNesting(res.Spans); err != nil {
			t.Errorf("%s: %v", w.name(), err)
		}
		if strings.HasPrefix(w.name(), "live-") {
			if m, ok := res.metric("runtime.goroutines_leaked"); !ok || m.Value != 0 {
				t.Errorf("%s: leaked goroutines: %+v", w.name(), m)
			}
		}

		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil {
			t.Fatalf("%s: driver line: %v", w.name(), err)
		}
		if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != len(contractPerLayer()) {
			t.Errorf("%s: driver line %+v does not carry every per-layer metric", w.name(), line)
		}
	}
	for _, d := range layerDefs {
		// Only a box with one core leaves the two-core probe out.
		if !seen[d.Name] && !(d.Name == "frontier.fpset_add_ns_pmax" && runtime.GOMAXPROCS(0) < 2) {
			t.Errorf("per-layer metric %s is declared but no workload reported it", d.Name)
		}
	}
}

// TestWrongPinFails flips one pinned node count and requires the command to
// exit non-zero.
func TestWrongPinFails(t *testing.T) {
	orc := testOracle(t)
	pin := orc.Explore["star(3)/HT-IC/mf0"]
	pin.Nodes++
	orc.Explore["star(3)/HT-IC/mf0"] = pin
	rep := &Report{Provenance: Provenance{Seed: 1984}}
	if code := runOne(rep, scaleTiny, "explore-plain", "0", orc); code == 0 {
		t.Fatal("a wrong pin left the exit code at 0")
	}
	if res := rep.Results[0]; res.Failed == 0 {
		t.Fatalf("a wrong pin failed no operation: %+v", res)
	}
}

// TestHeldOutSeed exercises the second documented seed: generated plans are
// deterministic per seed and differ between seeds, and the seed-dependent
// workloads pass their oracle at 611 as they do at 1984.
func TestHeldOutSeed(t *testing.T) {
	spec := liveSpecs(scaleTiny)[1]
	if !reflect.DeepEqual(planLive(611, spec), planLive(611, spec)) {
		t.Error("planLive is not a function of its seed")
	}
	if reflect.DeepEqual(planLive(611, spec), planLive(1984, spec)) {
		t.Error("seeds 611 and 1984 generate the same live plans")
	}
	schedules := func(seed int64) []sim.Schedule {
		c := chaosCells(scaleTiny)[1]
		corp, err := harvest(&env{seed: seed, scale: scaleTiny}, c.id, c.proto, c.problem, c.opts.MaxFailures,
			sim.OmissionPolicy{Budget: c.opts.OmissionBudget, Mobile: c.opts.MobileOmissions})
		if err != nil {
			t.Fatal(err)
		}
		var out []sim.Schedule
		for _, run := range corp.runs {
			out = append(out, run.Schedule)
		}
		return out
	}
	if !reflect.DeepEqual(schedules(611), schedules(611)) {
		t.Error("the probe corpus is not a function of its seed")
	}
	if reflect.DeepEqual(schedules(611), schedules(1984)) {
		t.Error("seeds 611 and 1984 harvest the same corpus")
	}

	orc := testOracle(t)
	for _, w := range workloads(scaleTiny) {
		if w.name() != "chaos-sweep" && w.name() != "live-faulty" {
			continue
		}
		res := runWorkload(w, &env{seed: 611, scale: scaleTiny, oracle: orc}, false)
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s at seed 611: %d of %d failed: %v", w.name(), res.Failed, res.Attempted, res.Failures)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, the driver's view, equal to the
// tables this package measures by, and inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	ws := workloads(scaleStd)
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads listed, %d exist", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		got := doc.Workloads[i]
		if got.Name != w.name() || got.Why == "" || len(got.Why) > 200 || strings.Contains(got.Why, "\n") {
			t.Errorf("workload %d: %+v, want %s with a one-line why", i, got, w.name())
		}
	}
	if len(doc.EndToEnd) != len(contractEndToEnd) {
		t.Fatalf("%d end-to-end metrics listed, want %d", len(doc.EndToEnd), len(contractEndToEnd))
	}
	for i, name := range contractEndToEnd {
		def, _ := endToEndDef(name)
		got := doc.EndToEnd[i]
		if got.Name != name || got.Unit != def.Unit || got.Better != def.Better || got.Bound == nil || *got.Bound != def.Bound || def.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, want %+v", i, got, def)
		}
	}
	want := contractPerLayer()
	if len(doc.PerLayer) != len(want) {
		t.Fatalf("%d per-layer metrics listed, want %d", len(doc.PerLayer), len(want))
	}
	for i, def := range want {
		got := doc.PerLayer[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Bound != nil || (got.Better != "lower" && got.Better != "higher") ||
			!metricNameRE.MatchString(got.Name) {
			t.Errorf("per-layer %d: %+v, want %s in %s with no bound", i, got, def.Name, def.Unit)
		}
	}
}

func TestCompare(t *testing.T) {
	prov := Provenance{Seed: 1984, Scale: "std", Seconds: 10}
	report := func(verdict, runs, failed float64) *Report {
		return &Report{Provenance: prov, Results: []*Result{{Workload: "live-clean", EndToEnd: []Metric{
			{Name: "verdict_s", Unit: "s", Value: verdict},
			{Name: "runs_per_s", Unit: "1/s", Value: runs},
			{Name: "failed_share", Unit: "ratio", Value: failed},
		}}}}
	}
	base := report(1.00, 100, 0)
	otherSeed := report(1.00, 100, 0)
	otherSeed.Provenance.Seed = 611
	tiny := report(1.00, 100, 0)
	tiny.Provenance.Scale = "tiny"
	notMeasured := report(1.00, 100, 0)
	notMeasured.Results[0].NotMeasured = "needs GOMAXPROCS >= 2, have 1"
	dropped := report(1.00, 100, 0)
	dropped.Results[0].EndToEnd = dropped.Results[0].EndToEnd[:1]
	metricNotMeasured := report(1.00, 100, 0)
	metricNotMeasured.Results[0].EndToEnd[1].NotMeasured = "no clock"
	for _, tc := range []struct {
		name string
		next *Report
		ok   bool
	}{
		{"within bounds", report(1.24, 95, 0), true},
		{"better", report(0.5, 200, 0), true},
		{"slower beyond bound", report(1.26, 100, 0), false},
		{"any rise in failed_share", report(1.00, 100, 0.001), false},
		{"throughput beyond bound", report(1.00, 74, 0), false},
		{"workload missing", &Report{Provenance: prov}, false},
		{"workload not measured in the new report", notMeasured, false},
		{"metric dropped from the new report", dropped, false},
		{"metric not measured in the new report", metricNotMeasured, false},
		{"another seed", otherSeed, false},
		{"another scale", tiny, false},
	} {
		var buf bytes.Buffer
		if got := compareReports(&buf, base, tc.next); got != tc.ok {
			t.Errorf("%s: ok=%v, want %v\n%s", tc.name, got, tc.ok, buf.String())
		}
		if tc.name == "slower beyond bound" && !strings.Contains(buf.String(), "beyond-bound") {
			t.Errorf("no beyond-bound mark in:\n%s", buf.String())
		}
	}
	// A base that could not measure a workload holds the new report to nothing.
	var buf bytes.Buffer
	if !compareReports(&buf, notMeasured, base) || !strings.Contains(buf.String(), "not_measured") {
		t.Errorf("a not_measured base: want ok and a not_measured line\n%s", buf.String())
	}
}

func TestSpanNesting(t *testing.T) {
	good := []Span{
		{ID: 1, Name: "workload:x", Workload: "x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "pass", Workload: "x", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "call", Workload: "x", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "probe", Workload: "x", Start: 60, End: 90},
	}
	if err := checkNesting(good); err != nil {
		t.Fatal(err)
	}
	if self := selfTimes(good); self[1] != 20 || self[2] != 20 || self[3] != 30 {
		t.Errorf("self times %v", self)
	}
	escaped := append([]Span(nil), good...)
	escaped[2].End = 70
	if checkNesting(escaped) == nil {
		t.Error("a child that outlives its parent passed")
	}
	if checkNesting(append(good, Span{ID: 5, Name: "workload:x", Workload: "x", Start: 0, End: 1})) == nil {
		t.Error("two roots for one workload passed")
	}
}
