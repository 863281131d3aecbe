package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
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
// Each record is encoded once, straight into a store the exporter owns: a
// list of fixed segSize segments, small-object allocations that never move
// or grow. With a sink the store is the one segment, written out whenever
// it fills and reused, so arbitrarily long runs never hold the whole trace
// in memory. Without one the segments accumulate and Close joins them once
// into the exact-size artifact Bytes returns. A run charges few distinct
// slice energies, so their decimal text is memoized per exporter. Output is
// deterministic: records are emitted in publish order with fixed field
// order, so two runs of the same seeded model produce byte-identical files.
type Perfetto struct {
	w       io.Writer // sink; nil keeps the trace for Bytes
	sub     *event.Subscription
	tids    map[string]int
	nextTid int
	n       int // records written

	segs [][]byte // sealed segments (no sink)
	cur  []byte   // the segment being filled, cap segSize
	base int      // store bytes before cur: sealed, or written to the sink
	out  []byte   // the finished artifact after Close (no sink)

	energy energyMemo
	err    error
}

const (
	// segSize is the capacity of one store segment, kept below the 32 KiB
	// small-object limit.
	segSize = 16 << 10
	// segReserve is the room a record may count on: a segment with less
	// left is sealed before the next record starts. A longer record
	// still fits; it carries over into the following segments.
	segReserve = 512
	// arrayEnd terminates the JSON array.
	arrayEnd = "\n]\n"
)

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

// AttachPerfetto subscribes an exporter to the bus. With a non-nil w the
// JSON array streams to w; with a nil w it is kept and, after Close,
// returned by Bytes. Call Close after the run to finish the array.
func AttachPerfetto(b *event.Bus, w io.Writer) *Perfetto {
	p := &Perfetto{
		w:       w,
		tids:    map[string]int{},
		nextTid: tidKernel + 1,
		cur:     make([]byte, 0, segSize),
	}
	p.cur = append(p.cur, '[')
	p.meta("process_name", tidKernel, "rtk-spec-tron")
	p.meta("thread_name", tidKernel, "kernel")
	p.sub = b.Subscribe(p.handle, pfKinds...)
	return p
}

// Close detaches the exporter from the bus and terminates the JSON array:
// it writes the rest of the array to the sink, or joins the store into the
// artifact Bytes returns. It returns the first write or encode error
// encountered.
func (p *Perfetto) Close() error {
	p.sub.Close()
	if p.w == nil {
		p.out = p.Bytes()
		p.segs, p.cur = nil, nil
		return p.err
	}
	p.room(len(arrayEnd))
	p.cur = append(p.cur, arrayEnd...)
	p.seal()
	return p.err
}

// Bytes returns the trace of an exporter without a sink as a complete
// JSON array in an exact-size slice. After Close it is the finished
// artifact; before, it is a copy of the records so far terminated as Close
// would terminate them, and the exporter keeps recording. With a sink it
// returns nil.
func (p *Perfetto) Bytes() []byte {
	if p.w != nil || p.out != nil {
		return p.out
	}
	p.room(len(arrayEnd))
	n := len(p.cur)
	p.cur = append(p.cur, arrayEnd...)
	out := bytes.Join(append(p.segs, p.cur), nil)
	p.cur = p.cur[:n]
	return out
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

// handle encodes one event by hand, field by field in a fixed order, at
// the end of the current store segment. The bytes are exactly those
// encoding/json writes for the same record with its argument keys sorted;
// the package's fuzz oracle holds the two equal. Once the event's row
// exists, nothing here allocates but a fresh segment per segSize bytes of
// kept trace.
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
		b = append(b, `{"name":`...)
		b = AppendJSONString(b, name)
		b = append(b, `,"cat":`...)
		b = AppendJSONString(b, Context(e.Ctx).String())
		b = append(b, `,"ph":"X","ts":`...)
		b = appendUs(b, e.Start)
		b = append(b, `,"dur":`...)
		b = appendUs(b, e.Time-e.Start)
		b = appendPidTid(b, tid)
		b = append(b, `,"args":{"energy_j":`...)
		b, err = p.energy.append(b, float64(e.Energy))
		b = append(b, "}}"...)
	default:
		b = appendInstant(b, e, tid)
	}
	p.end(b, err)
}

// The constant parts of "i" record heads, encoded once per kind k:
// instantCat[k] follows the record's name up to its timestamp, and
// instantHead[k] is the whole head of a record named after its kind, as
// every kind but the service calls is.
var instantCat, instantHead = func() (cat, head []string) {
	cat = make([]string, event.NumKinds())
	head = make([]string, event.NumKinds())
	for k := range cat {
		kind := event.Kind(k).String()
		cat[k] = string(AppendJSONString([]byte(`,"cat":`), kind)) + `,"ph":"i","ts":`
		head[k] = string(AppendJSONString([]byte(`{"name":`), kind)) + cat[k]
	}
	return cat, head
}()

// appendInstant encodes e as an "i" record on row tid.
func appendInstant(b []byte, e event.Event, tid int) []byte {
	if e.Kind == event.KindSvcEnter || e.Kind == event.KindSvcExit {
		b = append(b, `{"name":`...)
		b = AppendJSONString(b, e.Obj)
		b = append(b, instantCat[e.Kind]...)
	} else {
		b = append(b, instantHead[e.Kind]...)
	}
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

// appendPidTid places a record on row tid of pid 1, the single process
// standing for the whole simulation.
func appendPidTid(b []byte, tid int) []byte {
	b = append(b, `,"pid":1,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// begin starts a record, with its array separator, at the end of the
// current segment.
func (p *Perfetto) begin() []byte {
	p.room(segReserve)
	if p.n > 0 {
		return append(p.cur, ",\n"...)
	}
	return append(p.cur, '\n')
}

// end commits the record b that begin started, or drops it and keeps err
// when its encoding failed.
func (p *Perfetto) end(b []byte, err error) {
	if p.err != nil {
		return
	}
	if err != nil {
		p.err = err
		return
	}
	p.n++
	if len(b) <= segSize {
		p.cur = b
		return
	}
	// The record outgrew the segment, so append moved it: put back what
	// fits and carry the rest over into fresh segments.
	copy(p.cur[len(p.cur):segSize], b[len(p.cur):])
	p.cur = p.cur[:segSize]
	for rest := b[segSize:]; len(rest) > 0; {
		p.seal()
		p.cur = p.cur[:copy(p.cur[:segSize], rest)]
		rest = rest[len(p.cur):]
	}
}

// room seals the current segment when fewer than n bytes are left in it.
func (p *Perfetto) room(n int) {
	if segSize-len(p.cur) < n {
		p.seal()
	}
}

// seal retires the current segment and starts an empty one: without a
// sink it joins the store and a new segment is allocated; with one it is
// written out and reused.
func (p *Perfetto) seal() {
	p.base += len(p.cur)
	if p.w == nil {
		p.segs = append(p.segs, p.cur)
		p.cur = make([]byte, 0, segSize)
		return
	}
	if _, err := p.w.Write(p.cur); err != nil && p.err == nil {
		p.err = err
	}
	p.cur = p.cur[:0]
}

// energyMemo remembers the JSON text of recent run-slice energies,
// direct-mapped on their bits: a run charges few distinct energies, so
// most slices copy their text instead of formatting a float. NaN and ±Inf
// have no text and are never entered.
type energyMemo [64]struct {
	bits uint64
	n    uint8 // text length; 0 marks an empty entry
	text [31]byte
}

// append appends f as AppendJSONFloat does.
func (m *energyMemo) append(dst []byte, f float64) ([]byte, error) {
	bits := math.Float64bits(f)
	e := &m[bits*0x9e3779b97f4a7c15>>58]
	if e.n > 0 && e.bits == bits {
		return append(dst, e.text[:e.n]...), nil
	}
	start := len(dst)
	dst, err := AppendJSONFloat(dst, f)
	if err == nil && len(dst)-start <= len(e.text) {
		e.bits = bits
		e.n = uint8(copy(e.text[:], dst[start:]))
	}
	return dst, err
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
