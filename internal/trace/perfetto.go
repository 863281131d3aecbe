package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/event"
)

// Perfetto streams kernel events into the Chrome trace-event JSON format
// (the "JSON Array Format"), which ui.perfetto.dev and chrome://tracing load
// directly. Charged run slices become complete ("X") events with durations;
// kernel dynamics (dispatch, preemption, interrupts, service calls, timer
// fires...) become instant ("i") events on the owning thread's row, or on a
// synthetic "kernel" row when no thread is involved.
//
// The exporter writes incrementally — each event is encoded and flushed to
// the underlying writer as it is published, so arbitrarily long runs never
// buffer the whole trace in memory. Output is deterministic: records are
// emitted in publish order with fixed field order, so two runs of the same
// seeded model produce byte-identical files.
type Perfetto struct {
	w       *bufio.Writer
	sub     *event.Subscription
	tids    map[string]int
	nextTid int
	n       int    // records written
	buf     []byte // scratch for the record being encoded
	err     error
}

// tidKernel is the synthetic row carrying events without a subject thread.
const tidKernel = 0

// pfKinds is the event subset the exporter records. Quiescent points and
// time advances are deliberately excluded: they occur at every timed-phase
// boundary and would dominate the file without adding visual information.
var pfKinds = []event.Kind{
	event.KindRunSlice,
	event.KindSvcEnter, event.KindSvcExit,
	event.KindDispatch, event.KindPreempt,
	event.KindBlock, event.KindRelease,
	event.KindIntEnter, event.KindIntExit,
	event.KindActivate, event.KindExit, event.KindTerminate,
	event.KindSuspend, event.KindResume,
	event.KindTimerFire,
}

// AttachPerfetto subscribes a streaming exporter to the bus, writing the
// JSON array to w. Call Close after the run to finish the array and flush.
func AttachPerfetto(b *event.Bus, w io.Writer) *Perfetto {
	p := &Perfetto{
		w:       bufio.NewWriter(w),
		tids:    map[string]int{},
		nextTid: tidKernel + 1,
	}
	p.w.WriteString("[")
	p.meta("process_name", tidKernel, "rtk-spec-tron")
	p.meta("thread_name", tidKernel, "kernel")
	p.sub = b.Subscribe(p.handle, pfKinds...)
	return p
}

// Close detaches the exporter from the bus, terminates the JSON array and
// flushes. It returns the first write or encode error encountered.
func (p *Perfetto) Close() error {
	p.sub.Close()
	p.w.WriteString("\n]\n")
	if err := p.w.Flush(); err != nil && p.err == nil {
		p.err = err
	}
	return p.err
}

// Events returns the number of trace records written so far.
func (p *Perfetto) Events() int { return p.n }

// tid returns the row for a thread name, assigning one (and emitting its
// thread_name metadata) on first sight. Events without a subject thread go
// to the kernel row.
func (p *Perfetto) tid(thread string) int {
	if thread == "" {
		return tidKernel
	}
	if id, ok := p.tids[thread]; ok {
		return id
	}
	id := p.nextTid
	p.nextTid++
	p.tids[thread] = id
	p.meta("thread_name", id, thread)
	return id
}

// handle encodes one event by hand, field by field in a fixed order, into
// the reused scratch buffer. The bytes are exactly those encoding/json
// writes for the same record with its argument keys sorted; the package's
// fuzz oracle holds the two equal. Once the event's row exists, nothing here
// allocates.
func (p *Perfetto) handle(e event.Event) {
	if p.err != nil {
		return
	}
	tid := p.tid(e.Thread)
	b := p.begin()
	var err error
	switch e.Kind {
	case event.KindRunSlice:
		name := e.Obj
		if name == "" {
			name = Context(e.Ctx).String()
		}
		b = appendNameCat(b, name, Context(e.Ctx).String())
		b = append(b, `,"ph":"X","ts":`...)
		b = appendUs(b, e.Start)
		b = append(b, `,"dur":`...)
		b = appendUs(b, e.Time-e.Start)
		b = appendPidTid(b, tid)
		b = append(b, `,"args":{"energy_j":`...)
		b, err = AppendJSONFloat(b, float64(e.Energy))
		b = append(b, "}}"...)
	default:
		b = appendInstant(b, e, tid)
	}
	p.end(b, err)
}

// appendInstant encodes e as an "i" record on row tid.
func appendInstant(b []byte, e event.Event, tid int) []byte {
	name := e.Kind.String()
	if e.Kind == event.KindSvcEnter || e.Kind == event.KindSvcExit {
		name = e.Obj
	}
	b = appendNameCat(b, name, e.Kind.String())
	b = append(b, `,"ph":"i","ts":`...)
	b = appendUs(b, e.Time)
	b = appendPidTid(b, tid)
	b = append(b, `,"s":"t"`...)
	switch e.Kind {
	case event.KindSvcExit:
		b = append(b, `,"args":{"er":`...)
		b = strconv.AppendInt(b, int64(e.Code), 10)
		b = append(b, '}')
	case event.KindPreempt, event.KindBlock, event.KindRelease:
		if e.Obj != "" {
			b = append(b, `,"args":{"detail":`...)
			b = AppendJSONString(b, e.Obj)
			b = append(b, '}')
		}
	case event.KindIntEnter:
		b = append(b, `,"args":{"depth":`...)
		b = strconv.AppendUint(b, e.Seq, 10)
		b = append(b, '}')
	case event.KindTimerFire:
		b = append(b, `,"args":{"armed_us":`...)
		b = appendUs(b, e.Start)
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, e.Seq, 10)
		b = append(b, '}')
	}
	return append(b, '}')
}

// meta emits an "M" record naming the process or a thread row.
func (p *Perfetto) meta(kind string, tid int, name string) {
	b := p.begin()
	b = append(b, `{"name":`...)
	b = AppendJSONString(b, kind)
	b = append(b, `,"ph":"M"`...)
	b = appendPidTid(b, tid)
	b = append(b, `,"args":{"name":`...)
	b = AppendJSONString(b, name)
	p.end(append(b, "}}"...), nil)
}

func appendNameCat(b []byte, name, cat string) []byte {
	b = append(b, `{"name":`...)
	b = AppendJSONString(b, name)
	b = append(b, `,"cat":`...)
	return AppendJSONString(b, cat)
}

// appendPidTid places a record on row tid of pid 1, the single process
// standing for the whole simulation.
func appendPidTid(b []byte, tid int) []byte {
	b = append(b, `,"pid":1,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// begin starts a record in the scratch buffer with its array separator.
func (p *Perfetto) begin() []byte {
	if p.n > 0 {
		return append(p.buf[:0], ",\n"...)
	}
	return append(p.buf[:0], '\n')
}

// end writes the finished record b, or drops it and keeps err when its
// encoding failed.
func (p *Perfetto) end(b []byte, err error) {
	p.buf = b
	if p.err != nil {
		return
	}
	if err != nil {
		p.err = err
		return
	}
	if _, err := p.w.Write(b); err != nil {
		p.err = err
		return
	}
	p.n++
}

// ValidatePerfetto schema-checks a trace-event JSON array: every record must
// carry a known phase (M/X/i), pid and tid, a numeric ts for X/i records and
// a non-negative dur for X records. It returns the number of records.
func ValidatePerfetto(r io.Reader) (int, error) {
	var recs []map[string]any
	if err := json.NewDecoder(r).Decode(&recs); err != nil {
		return 0, fmt.Errorf("trace: not a JSON array: %w", err)
	}
	for i, rec := range recs {
		ph, _ := rec["ph"].(string)
		switch ph {
		case "M", "X", "i":
		default:
			return i, fmt.Errorf("trace: record %d: bad ph %q", i, rec["ph"])
		}
		if _, ok := rec["pid"].(float64); !ok {
			return i, fmt.Errorf("trace: record %d: missing pid", i)
		}
		if _, ok := rec["tid"].(float64); !ok {
			return i, fmt.Errorf("trace: record %d: missing tid", i)
		}
		if ph == "M" {
			continue
		}
		if _, ok := rec["ts"].(float64); !ok {
			return i, fmt.Errorf("trace: record %d: missing ts", i)
		}
		if ph == "X" {
			dur, ok := rec["dur"].(float64)
			if !ok || dur < 0 {
				return i, fmt.Errorf("trace: record %d: bad dur %v", i, rec["dur"])
			}
		}
	}
	return len(recs), nil
}
