package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span is one timed interval around a call the benchmark makes into a
// layer's public API (or around a layer probe). Spans are recorded from the
// benchmark's own files only; nothing inside the program under test is
// instrumented. Start and End are nanoseconds since the tracer was created.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Cell     string `json:"cell,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Count is the work the span covered, in the unit its name implies
	// (nodes explored, runs completed, probe operations).
	Count int64 `json:"count"`
}

// tracer records spans in memory, on the benchmark's driving goroutine
// only, and writes them out when the benchmark ends. A nil *tracer is the
// tracing-off state: begin and end are no-ops, so call sites need no branch
// and the untraced run pays one nil check per whole public call.
type tracer struct {
	workload string
	t0       time.Time
	spans    []Span
	open     []int // stack of indexes into spans
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span as a child of the innermost open span and returns its
// handle for end.
func (t *tracer) begin(name, cell string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, Span{
		ID: idx + 1, Parent: parent, Name: name, Workload: t.workload, Cell: cell,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	t.open = append(t.open, idx)
	return idx
}

// end closes the innermost open span, which must be the one begin returned
// as h: spans nest strictly because one goroutine opens and closes them.
func (t *tracer) end(h int, count int64) {
	if t == nil {
		return
	}
	top := len(t.open) - 1
	if top < 0 || t.open[top] != h {
		panic(fmt.Sprintf("bench: span %d closed out of order", h))
	}
	t.open = t.open[:top]
	t.spans[h].End = time.Since(t.t0).Nanoseconds()
	t.spans[h].Count = count
}

// selfTimes returns, per span ID, the span's duration minus the part its
// child spans cover. Children of one parent never overlap (single stack),
// so the subtraction is exact.
func selfTimes(spans []Span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// checkNesting verifies the structural promises of a span file: one root
// per workload, every child inside its parent, and no negative self time.
func checkNesting(spans []Span) error {
	byID := make(map[int]Span, len(spans))
	roots := map[string]int{}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
		if s.Parent == 0 {
			roots[s.Workload]++
		}
	}
	for w, n := range roots { //ccvet:ignore detrange any offender fails the check; order is unobservable
		if n != 1 {
			return fmt.Errorf("workload %s has %d root spans, want 1", w, n)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	for id, st := range selfTimes(spans) { //ccvet:ignore detrange any offender fails the check; order is unobservable
		if st < 0 {
			return fmt.Errorf("span %d has negative self time %d ns", id, st)
		}
	}
	return nil
}

func writeSpans(path string, spans []Span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSpans(path string) ([]Span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []Span
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spans, nil
}
