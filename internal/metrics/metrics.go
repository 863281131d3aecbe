// Package metrics derives per-task scheduling and accounting statistics from
// the kernel event bus: dispatch latency (ready -> running), wait time
// (blocked -> released), preemption/dispatch counts, and CET/CEE rollups per
// task and per execution context. The collector is a pure bus subscriber — it
// never touches kernel internals — and its report is machine-readable JSON
// with deterministic field and row order, suitable for regression diffing
// next to the Figure 7 time/energy distribution.
package metrics

import (
	"bytes"
	"io"
	"math/bits"
	"sort"
	"strconv"

	"repro/internal/event"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// histBuckets is the number of log2 histogram buckets. Bucket i counts
// samples whose value in microseconds has bit length i, so bucket 0 is
// sub-microsecond, bucket 1 is [1us,2us), bucket 20 is [0.5s,1s), and the
// last bucket absorbs everything longer.
const histBuckets = 24

// Histogram is a log2-bucketed latency histogram over simulated time.
type Histogram struct {
	Count   uint64              `json:"count"`
	SumUs   float64             `json:"sum_us"`
	MaxUs   float64             `json:"max_us"`
	Buckets [histBuckets]uint64 `json:"log2_us_buckets"`
}

// observe records one duration sample.
func (h *Histogram) observe(d sysc.Time) {
	if d < 0 {
		return
	}
	us := float64(d) / 1e6
	h.Count++
	h.SumUs += us
	if us > h.MaxUs {
		h.MaxUs = us
	}
	i := bits.Len64(uint64(d / 1e6))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.Buckets[i]++
}

// MeanUs returns the mean sample in microseconds (0 when empty).
func (h *Histogram) MeanUs() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumUs / float64(h.Count)
}

// TaskMetrics aggregates one task's scheduling behaviour over a run.
type TaskMetrics struct {
	Thread          string    `json:"thread"`
	Dispatches      uint64    `json:"dispatches"`
	Preemptions     uint64    `json:"preemptions"`
	CETUs           float64   `json:"cet_us"`
	CEEJoules       float64   `json:"cee_j"`
	DispatchLatency Histogram `json:"dispatch_latency"`
	WaitTime        Histogram `json:"wait_time"`
}

// ContextMetrics rolls consumed time and energy up by execution context
// (task, service, handler, bfm, idle...), mirroring the Figure 7 breakdown.
type ContextMetrics struct {
	Context string  `json:"context"`
	TimeUs  float64 `json:"time_us"`
	Joules  float64 `json:"joules"`
	Slices  uint64  `json:"slices"`
}

// Report is the full machine-readable metrics dump for one run.
type Report struct {
	SimTimeUs float64          `json:"sim_time_us"`
	Tasks     []TaskMetrics    `json:"tasks"`
	Contexts  []ContextMetrics `json:"contexts"`
}

// Collector subscribes to the bus and accumulates metrics as events stream
// by. It keeps O(tasks) state; event volume does not grow its footprint.
type Collector struct {
	sub *event.Subscription

	tasks map[string]*taskState
	ctxs  map[uint8]*ContextMetrics

	end sysc.Time
}

type taskState struct {
	m TaskMetrics

	readyAt   sysc.Time
	ready     bool
	blockedAt sysc.Time
	blocked   bool
}

// collectorKinds is the event subset the collector consumes.
var collectorKinds = []event.Kind{
	event.KindRunSlice,
	event.KindDispatch, event.KindPreempt,
	event.KindBlock, event.KindRelease,
	event.KindActivate,
}

// Attach subscribes a new collector to the bus.
func Attach(b *event.Bus) *Collector {
	c := &Collector{
		tasks: map[string]*taskState{},
		ctxs:  map[uint8]*ContextMetrics{},
	}
	c.sub = b.Subscribe(c.handle, collectorKinds...)
	return c
}

// Close detaches the collector from the bus.
func (c *Collector) Close() { c.sub.Close() }

// task returns (creating on first sight) the state for a thread name.
func (c *Collector) task(name string) *taskState {
	t, ok := c.tasks[name]
	if !ok {
		t = &taskState{m: TaskMetrics{Thread: name}}
		c.tasks[name] = t
	}
	return t
}

func (c *Collector) handle(e event.Event) {
	if e.Time > c.end {
		c.end = e.Time
	}
	switch e.Kind {
	case event.KindRunSlice:
		t := c.task(e.Thread)
		dur := e.Time - e.Start
		t.m.CETUs += float64(dur) / 1e6
		t.m.CEEJoules += e.Energy.Joules()
		ctx, ok := c.ctxs[e.Ctx]
		if !ok {
			ctx = &ContextMetrics{Context: trace.Context(e.Ctx).String()}
			c.ctxs[e.Ctx] = ctx
		}
		ctx.TimeUs += float64(dur) / 1e6
		ctx.Joules += e.Energy.Joules()
		ctx.Slices++
	case event.KindActivate:
		t := c.task(e.Thread)
		t.readyAt, t.ready = e.Time, true
	case event.KindRelease:
		t := c.task(e.Thread)
		if t.blocked {
			t.m.WaitTime.observe(e.Time - t.blockedAt)
			t.blocked = false
		}
		t.readyAt, t.ready = e.Time, true
	case event.KindPreempt:
		// The preempted thread goes back to READY and will be re-dispatched.
		t := c.task(e.Thread)
		t.m.Preemptions++
		t.readyAt, t.ready = e.Time, true
	case event.KindDispatch:
		t := c.task(e.Thread)
		t.m.Dispatches++
		if t.ready {
			t.m.DispatchLatency.observe(e.Time - t.readyAt)
			t.ready = false
		}
	case event.KindBlock:
		t := c.task(e.Thread)
		t.blockedAt, t.blocked = e.Time, true
	}
}

// Report snapshots the accumulated metrics, task rows and context rows
// sorted by name for deterministic output. A collector that saw no task
// or no context leaves that row list nil.
func (c *Collector) Report() Report {
	r := Report{SimTimeUs: float64(c.end) / 1e6}
	if len(c.tasks) > 0 {
		r.Tasks = make([]TaskMetrics, 0, len(c.tasks))
	}
	if len(c.ctxs) > 0 {
		r.Contexts = make([]ContextMetrics, 0, len(c.ctxs))
	}
	for _, t := range c.tasks {
		r.Tasks = append(r.Tasks, t.m)
	}
	sort.Slice(r.Tasks, func(i, j int) bool { return r.Tasks[i].Thread < r.Tasks[j].Thread })
	for _, x := range c.ctxs {
		r.Contexts = append(r.Contexts, *x)
	}
	sort.Slice(r.Contexts, func(i, j int) bool { return r.Contexts[i].Context < r.Contexts[j].Context })
	return r
}

// JSON returns the report as indented JSON: the bytes of encoding/json's
// Encoder with SetIndent("", "  "), newline-terminated, in an exact-size
// slice. A NaN or infinite value has no JSON form; JSON then returns nil
// and an error.
func (c *Collector) JSON() ([]byte, error) {
	r := c.Report()
	b, err := r.appendJSON()
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// WriteJSON writes the bytes JSON returns to w, or nothing when JSON
// fails.
func (c *Collector) WriteJSON(w io.Writer) error {
	r := c.Report()
	b, err := r.appendJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Encoded sizes, rounded up, of a task row with its two histograms and of
// a context row with ordinary names and values. They size the scratch
// buffer so that it rarely grows.
const (
	taskJSONSize    = 1152
	contextJSONSize = 160
)

// appendJSON encodes the report into a scratch buffer sized from its row
// counts.
func (r *Report) appendJSON() ([]byte, error) {
	e := indenter{b: make([]byte, 0, 128+len(r.Tasks)*taskJSONSize+len(r.Contexts)*contextJSONSize)}
	e.open('{')
	e.key("sim_time_us")
	e.float(r.SimTimeUs)
	e.key("tasks")
	e.list(r.Tasks == nil, len(r.Tasks), func(i int) { e.task(&r.Tasks[i]) })
	e.key("contexts")
	e.list(r.Contexts == nil, len(r.Contexts), func(i int) { e.context(&r.Contexts[i]) })
	e.close('}')
	return append(e.b, '\n'), e.err
}

func (e *indenter) task(t *TaskMetrics) {
	e.open('{')
	e.key("thread")
	e.str(t.Thread)
	e.key("dispatches")
	e.uint(t.Dispatches)
	e.key("preemptions")
	e.uint(t.Preemptions)
	e.key("cet_us")
	e.float(t.CETUs)
	e.key("cee_j")
	e.float(t.CEEJoules)
	e.key("dispatch_latency")
	e.histogram(&t.DispatchLatency)
	e.key("wait_time")
	e.histogram(&t.WaitTime)
	e.close('}')
}

func (e *indenter) histogram(h *Histogram) {
	e.open('{')
	e.key("count")
	e.uint(h.Count)
	e.key("sum_us")
	e.float(h.SumUs)
	e.key("max_us")
	e.float(h.MaxUs)
	e.key("log2_us_buckets")
	e.buckets(&h.Buckets)
	e.close('}')
}

func (e *indenter) context(x *ContextMetrics) {
	e.open('{')
	e.key("context")
	e.str(x.Context)
	e.key("time_us")
	e.float(x.TimeUs)
	e.key("joules")
	e.float(x.Joules)
	e.key("slices")
	e.uint(x.Slices)
	e.close('}')
}

// indenter appends JSON laid out as encoding/json's two-space indent does:
// every member and element on its own line, empty containers as {} and [].
// The first unsupported float is kept in err.
type indenter struct {
	b     []byte
	depth int
	empty bool // the innermost open container has no member yet
	err   error
}

func (e *indenter) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.empty = true
}

func (e *indenter) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.b = append(e.b, c)
	e.empty = false
}

// list writes an array of n elements, element i written by elem, or null
// for a nil slice, as encoding/json does.
func (e *indenter) list(isNil bool, n int, elem func(i int)) {
	if isNil {
		e.b = append(e.b, "null"...)
		return
	}
	e.open('[')
	for i := range n {
		e.elem()
		elem(i)
	}
	e.close(']')
}

// sep is a member separator followed by the indentation of the deepest
// line a report holds: sep[:2+2*d] ends a member and starts the next line
// at depth d, sep[1:2+2*d] only starts the line.
const sep = ",\n" + "            "

// elem starts the next member or element of the innermost container.
func (e *indenter) elem() {
	if e.empty {
		e.newline()
	} else {
		e.b = append(e.b, sep[:2+2*e.depth]...)
	}
	e.empty = false
}

func (e *indenter) newline() {
	e.b = append(e.b, sep[1:2+2*e.depth]...)
}

// buckets writes a histogram's bucket array, one count per line: its
// length is fixed and most counts are zero.
func (e *indenter) buckets(bs *[histBuckets]uint64) {
	line := sep[:2+2*(e.depth+1)]
	e.b = append(e.b, '[')
	for i, n := range bs {
		if i == 0 {
			e.b = append(e.b, line[1:]...)
		} else {
			e.b = append(e.b, line...)
		}
		e.uint(n)
	}
	e.newline()
	e.b = append(e.b, ']')
}

// key starts a member named k, a plain ASCII identifier needing no escape.
func (e *indenter) key(k string) {
	e.elem()
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, `": `...)
}

func (e *indenter) str(s string) { e.b = trace.AppendJSONString(e.b, s) }
func (e *indenter) uint(n uint64) {
	if n == 0 {
		e.b = append(e.b, '0')
		return
	}
	e.b = strconv.AppendUint(e.b, n, 10)
}
func (e *indenter) float(f float64) {
	var err error
	e.b, err = trace.AppendJSONFloat(e.b, f)
	if e.err == nil {
		e.err = err
	}
}
