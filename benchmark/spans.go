package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one replayed payment share
// Trace; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	Name       string
	Trace      int
	ID         int
	Parent     int
	Start, End time.Duration // since the tracer's origin
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, trace, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: time.Since(t.origin)})
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.origin) }

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count  int
	Total  time.Duration // summed durations
	Nested time.Duration // summed durations of direct children
}

// MeanUs is the mean span duration in µs (0 when the name never occurred).
func (s spanStat) MeanUs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Total.Nanoseconds()) / 1e3 / float64(s.Count)
}

// SelfMeanUs is the mean of duration minus the part children cover.
func (s spanStat) SelfMeanUs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64((s.Total - s.Nested).Nanoseconds()) / 1e3 / float64(s.Count)
}

// byName folds the spans into per-name totals and self times.
func (t *tracer) byName() map[string]spanStat {
	out := map[string]spanStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.Total += s.End - s.Start
		out[s.Name] = st
		if s.Parent != 0 {
			p := t.spans[s.Parent-1]
			ps := out[p.Name]
			ps.Nested += s.End - s.Start
			out[p.Name] = ps
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open directly.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		ev, _ := json.Marshal(map[string]any{ // strings and numbers only: cannot fail
			"name": s.Name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
			"ts":   float64(s.Start.Nanoseconds()) / 1e3,
			"dur":  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			"args": map[string]int{"trace": s.Trace, "id": s.ID, "parent": s.Parent},
		})
		fmt.Fprintf(w, "\n%s", ev)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
