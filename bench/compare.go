package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareFiles judges report b against report a (the base) and returns the
// exit code.
func compareFiles(a, b string) int {
	base, err := readReport(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	next, err := readReport(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("base %s: %s\nnew  %s: %s\n", a, base.Provenance, b, next.Provenance)
	if !compareReports(os.Stdout, base, next) {
		return 1
	}
	return 0
}

// compareReports prints, per workload and end-to-end metric, both values
// (each the median its report took over its passes or runs), how much worse
// the new one is as a share of the base, and the metric's bound. It reports
// whether everything stayed within its bound and failed_share did not rise.
// Reports measured at different seeds, scales or run lengths are refused, and
// a number the base has and the new report lacks is never a pass.
func compareReports(w io.Writer, base, next *Report) bool {
	if b, n := base.Provenance, next.Provenance; b.Seed != n.Seed || b.Scale != n.Scale || b.Seconds != n.Seconds {
		fmt.Fprintf(w, "not comparable: base has seed=%d scale=%s seconds=%g, new has seed=%d scale=%s seconds=%g\n",
			b.Seed, b.Scale, b.Seconds, n.Seed, n.Scale, n.Seconds)
		return false
	}
	ok := true
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %-6s %22s %6s  %s\n", "workload", "metric", "base", "new", "unit", "worse by (of base)", "bound", "")
	for _, br := range base.Results {
		var nr *Result
		for _, r := range next.Results {
			if r.Workload == br.Workload {
				nr = r
			}
		}
		switch {
		case br.NotMeasured != "":
			// Nothing to hold the new report to.
			fmt.Fprintf(w, "%-18s not_measured in the base (%s)\n", br.Workload, br.NotMeasured)
			continue
		case nr == nil:
			fmt.Fprintf(w, "%-18s missing from the new report\n", br.Workload)
			ok = false
			continue
		case nr.NotMeasured != "":
			fmt.Fprintf(w, "%-18s not_measured in the new report (%s)\n", br.Workload, nr.NotMeasured)
			ok = false
			continue
		}
		for _, bm := range br.EndToEnd {
			def, known := endToEndDef(bm.Name)
			if !known || bm.NotMeasured != "" {
				continue
			}
			nm, found := nr.metric(bm.Name)
			if !found || nm.NotMeasured != "" {
				fmt.Fprintf(w, "%-18s %-16s %14.6g %14s %-6s  missing from the new report\n", br.Workload, bm.Name, bm.Value, "-", bm.Unit)
				ok = false
				continue
			}
			// delta is the worsening in the metric's unit, worse its share
			// of the base (of which a zero base admits none).
			delta := nm.Value - bm.Value
			if def.Better == "higher" {
				delta = -delta
			}
			worse := 0.0
			switch {
			case bm.Value != 0:
				worse = delta / bm.Value
			case delta > 0:
				worse = 1
			}
			verdict, bound := "ok", fmt.Sprintf("%.0f%%", def.Bound*100)
			switch {
			case def.Bound < 0:
				verdict, bound = "not judged (demoted)", "none"
			case worse > def.Bound && delta > def.Floor:
				verdict = "beyond-bound"
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %-6s %+9.2f%% of %-9.4g %6s  %s\n",
				br.Workload, bm.Name, bm.Value, nm.Value, bm.Unit, worse*100, bm.Value, bound, verdict)
		}
	}
	return ok
}
