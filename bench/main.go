// Command bench is the repository's layered benchmark: eight named
// workloads over the exhaustive explorer, the chaos sweeper and the live
// runtime, each checked against a pinned oracle, with end-to-end metrics
// measured untraced and per-layer metrics from a separate traced run. See
// bench/README.md for the tables; BENCHMARK.json at the repository root is
// the driver's view of the same benchmark.
//
// Usage:
//
//	go run ./bench                          # every workload, each in a child process
//	go run ./bench -workload live-faulty    # one workload, in this process
//	go run ./bench -trace spans.json        # also a traced run per workload; spans written out
//	go run ./bench -o a.json                # keep the full report
//	go run ./bench -compare a.json b.json   # judge b against a by the benchmark's own bounds
//
// The driver's form is `-workload W -seed N -seconds S -trace 0|1`; the last
// line of standard output is then one JSON object with the keys correct,
// attempted, failed and metrics.
//
// Exit codes: 0 every output matched the oracle (or -compare found nothing
// beyond its bound), 1 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// Provenance says where and on what a report was measured.
type Provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	When       string  `json:"when"`
}

// Report is the file -o writes and -compare reads.
type Report struct {
	Provenance Provenance `json:"provenance"`
	Results    []*Result  `json:"results"`
}

// commit names the measured source: the VCS revision stamped into the
// binary, else what git says of the working directory, else "unknown" (the
// driver's checkout is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "+modified"
	}
	return rev
}

func provenance(seed int64, s scale, seconds float64) Provenance {
	return Provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit(),
		Seed: seed, Scale: s.String(), Seconds: seconds, When: time.Now().UTC().Format(time.RFC3339),
	}
}

func (p Provenance) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s seed=%d scale=%s seconds=%g",
		p.NProc, p.GOMAXPROCS, p.Go, p.GOOS, p.GOARCH, p.Commit, p.Seed, p.Scale, p.Seconds)
}

// workloads builds the eight workloads in README order.
func workloads(s scale) []workload {
	ws := []workload{
		&exploreWL{wname: "explore-plain", cellsAt: plainCells, parallelism: 1, cores: 1,
			wwhy: "the bare canonical walk: sim successor generation, incremental fingerprint, frontier admit and the census do nearly all the work; symmetry and the pool do none"},
		&exploreWL{wname: "explore-parallel", cellsAt: plainCells, parallelism: 0, cores: 2,
			wwhy: "the identical cells at Parallelism 0, the CLIs' default: the pool and canonical-replay path; a design that makes parallelism pay, or deletes it, moves this and must not move explore-plain"},
		&exploreWL{wname: "explore-reduced", cellsAt: reducedCells, parallelism: 1, cores: 1, reduced: true,
			wwhy: "canonicalization (PermuteConfig and a cold Fingerprint per automorphism, WithoutDeadBuffers) dominates here and is bypassed in explore-plain; the omission cell is where re-arming reductions will show"},
		&chaosWL{},
	}
	for _, spec := range liveSpecs(s) {
		ws = append(ws, &liveWL{spec: spec})
	}
	return append(ws, &paperWL{})
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "run one workload in this process (default: all, each in a child process)")
		seed    = flag.Int64("seed", 1984, "seed of every generated input: input vectors, crash plans, transport fault seeds, chaos sweeps, probe corpora (611 is the held-out seed)")
		seconds = flag.Float64("seconds", 10, "how long one workload measures; passes repeat until it is used up")
		scaleS  = flag.String("scale", "std", "std (the benchmark, what BENCHMARK.json measures) or tiny (the self-test)")
		trace   = flag.String("trace", "0", "0: untraced; 1: traced run, per-layer metrics; a path: traced run, spans written there")
		out     = flag.String("o", "", "write the full report as JSON to this file")
		compare = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two report files")
			return 1
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	sc, err := parseScale(*scaleS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	orc, err := loadOracle()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep := &Report{Provenance: provenance(*seed, sc, *seconds)}
	fmt.Println("bench:", rep.Provenance)

	code := 0
	if *name == "" {
		code = runAll(rep, sc, *trace)
	} else {
		code = runOne(rep, sc, *name, *trace, orc)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// runOne measures one workload in this process, prints its tables, and ends
// standard output with the driver line.
func runOne(rep *Report, sc scale, name, trace string, orc *oracle) int {
	var w workload
	for _, cand := range workloads(sc) {
		if cand.name() == name {
			w = cand
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 1
	}
	traced := trace != "0"
	res := runWorkload(w, &env{seed: rep.Provenance.Seed, scale: sc, seconds: rep.Provenance.Seconds, oracle: orc}, traced)
	rep.Results = append(rep.Results, res)
	printResult(res)
	if traced && trace != "1" {
		if err := writeSpans(trace, res.Spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if res.NotMeasured != "" {
		// No number is better than a number that means something else.
		return 1
	}
	fmt.Println(driverLine(res))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// driverLine renders the one JSON object the driver reads: every end-to-end
// metric of BENCHMARK.json for an untraced run, every per-layer metric for a
// traced one.
func driverLine(res *Result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	if res.Traced {
		for _, d := range contractPerLayer() {
			m, _ := res.metric(d.Name)
			line.Metrics[d.Name] = value{m.Value, d.Unit}
		}
	} else {
		for _, name := range contractEndToEnd {
			m, _ := res.metric(name)
			def, _ := endToEndDef(name)
			line.Metrics[name] = value{m.Value, def.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(data)
}

// runAll runs every workload in a sequential child process of its own, so
// that peak_rss_mb is per workload, and, when tracing, a second traced child.
func runAll(rep *Report, sc scale, trace string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	child := func(name, trace string) (*Result, []Span, bool) {
		outFile := filepath.Join(tmp, name+"-"+strconv.FormatBool(trace != "0")+".json")
		cmd := exec.Command(exe, "-workload", name, "-scale", sc.String(), "-o", outFile, "-trace", trace,
			"-seed", strconv.FormatInt(rep.Provenance.Seed, 10),
			"-seconds", strconv.FormatFloat(rep.Provenance.Seconds, 'g', -1, 64))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		var childRep Report
		data, err := os.ReadFile(outFile)
		if err == nil {
			err = json.Unmarshal(data, &childRep)
		}
		if err != nil || len(childRep.Results) != 1 {
			fmt.Fprintf(os.Stderr, "bench: %s child left no report (%v, %v)\n", name, runErr, err)
			return nil, nil, false
		}
		var spans []Span
		if trace != "0" {
			if spans, err = readSpans(trace); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return nil, nil, false
			}
		}
		return childRep.Results[0], spans, runErr == nil
	}

	code := 0
	var spans []Span
	for _, w := range workloads(sc) {
		res, _, ok := child(w.name(), "0")
		if !ok {
			code = 1
		}
		if res == nil {
			continue
		}
		if trace != "0" && res.NotMeasured == "" {
			traced, sp, ok := child(w.name(), filepath.Join(tmp, w.name()+"-spans.json"))
			if !ok {
				code = 1
			}
			if traced != nil {
				res.PerLayer = traced.PerLayer
				res.Passes += traced.Passes
				res.Attempted += traced.Attempted
				res.Failed += traced.Failed
				res.Failures = append(res.Failures, traced.Failures...)
				// Children number their spans from 1; keep IDs unique.
				for _, s := range sp {
					s.ID += len(spans)
					if s.Parent != 0 {
						s.Parent += len(spans)
					}
					spans = append(spans, s)
				}
			}
		}
		rep.Results = append(rep.Results, res)
	}
	printSummary(rep)
	if trace != "0" && trace != "1" {
		if err := writeSpans(trace, spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("wrote %d spans to %s\n", len(spans), trace)
	}
	return code
}

func formatMetric(m Metric) string {
	if m.NotMeasured != "" {
		return fmt.Sprintf("  %-38s not_measured (%s)", m.Name, m.NotMeasured)
	}
	s := fmt.Sprintf("  %-38s %14.6g %-6s", m.Name, m.Value, m.Unit)
	if m.Samples > 0 {
		s += fmt.Sprintf(" n=%d", m.Samples)
	}
	if m.Min != 0 {
		s += fmt.Sprintf(" min=%.6g", m.Min)
	}
	if m.Note != "" {
		s += "  # " + m.Note
	}
	return s
}

func printResult(res *Result) {
	kind := "untraced"
	if res.Traced {
		kind = "traced (end-to-end numbers below come from two passes; quote the untraced run)"
	}
	fmt.Printf("\n== %s  [%s, scale %s, seed %d]\n   %s\n", res.Workload, kind, res.Scale, res.Seed, res.Why)
	if res.NotMeasured != "" {
		fmt.Printf("   not_measured: %s\n", res.NotMeasured)
		return
	}
	fmt.Printf("   passes=%d operations=%d failed=%d wall=%.1fs\n", res.Passes, res.Attempted, res.Failed, res.WallSeconds)
	fmt.Println(" end-to-end:")
	for _, m := range res.EndToEnd {
		fmt.Println(formatMetric(m))
	}
	if len(res.PerLayer) > 0 {
		fmt.Println(" per-layer:")
		for _, m := range res.PerLayer {
			fmt.Println(formatMetric(m))
		}
	}
	for _, f := range res.Failures {
		fmt.Println(" FAILED:", f)
	}
}

// printSummary is the one table of a whole set: every workload's end-to-end
// metrics side by side with their bounds.
func printSummary(rep *Report) {
	fmt.Printf("\n== summary  %s\n", rep.Provenance)
	fmt.Printf("%-18s %-16s %14s %-6s %6s  %s\n", "workload", "metric", "value", "unit", "bound", "samples")
	for _, res := range rep.Results {
		if res.NotMeasured != "" {
			fmt.Printf("%-18s not_measured: %s\n", res.Workload, res.NotMeasured)
			continue
		}
		for _, m := range res.EndToEnd {
			bound := "none"
			if def, _ := endToEndDef(m.Name); def.Bound >= 0 {
				bound = fmt.Sprintf("%.0f%%", def.Bound*100)
			}
			fmt.Printf("%-18s %-16s %14.6g %-6s %6s  %d\n", res.Workload, m.Name, m.Value, m.Unit, bound, m.Samples)
		}
		if res.Failed > 0 {
			fmt.Printf("%-18s FAILED %d of %d operations\n", res.Workload, res.Failed, res.Attempted)
		}
	}
}
