package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a module's public API, recorded by the
// benchmark around the call. Spans of one operation share req; parent is
// the index of the enclosing span, -1 at the top.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once the run ends so
// recording costs one append per span. A nil *tracer records nothing,
// which is the untraced mode: every begin/end is then a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	d := now - t.spans[i].Start
	t.mu.Unlock()
	return time.Duration(d)
}

// layerStat aggregates the spans of one name. Self time is a span's
// duration minus the part its child spans cover.
type layerStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50US   float64 `json:"p50_us"`
}

// summary aggregates the recorded spans by name.
func (t *tracer) summary() map[string]layerStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	durs := map[string][]float64{}
	out := map[string]layerStat{}
	for i, s := range t.spans {
		d := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(d-child[i]) / 1e6
		out[s.Name] = st
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
	}
	for name, ds := range durs {
		sort.Float64s(ds)
		st := out[name]
		st.P50US = quantile(ds, 0.5)
		out[name] = st
	}
	return out
}

// durations returns the durations of every span with the given name, in
// milliseconds, sorted ascending.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}
