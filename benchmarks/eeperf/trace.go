package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// This file is the harness-side tracer. In the traced repetition every
// call the harness makes across a layer boundary is wrapped in a span —
// name, start, end, parent span, statement id — kept in memory and
// written out when the run ends. A nil *tracer records nothing, so the
// untraced repetitions pay one nil check per call.

// span is one call across a layer boundary. Times are host nanoseconds
// since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Stmt   int    `json:"stmt"` // statement index, -1 when not tied to one
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<15)} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, stmt int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Stmt: stmt,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// durations returns the duration in seconds of every span with the name.
func (t *tracer) durations(names ...string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, float64(s.End-s.Start)/1e9)
			}
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// selfTimes computes each span's self time: its duration minus the part
// of its interval that its direct children cover. Children may overlap
// each other (their union is what counts) and are clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfSeconds sums the self time of every span with the name.
func (t *tracer) selfSeconds(name string) float64 {
	if t == nil {
		return 0
	}
	self := selfTimes(t.spans)
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += self[s.ID]
		}
	}
	return float64(ns) / 1e9
}

// traceFile is what -trace writes: the spans of the traced repetition,
// the counters read at the same boundaries, and the per-layer metrics
// derived from both.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	Counters map[string]float64 `json:"counters"`
	PerLayer map[string]metric  `json:"per_layer"`
}

func writeTrace(path string, tf *traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
