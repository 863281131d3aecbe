package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/petri"
	"repro/internal/sysc"
)

// The reference encoder: the encoding/json record structs and emit path the
// hand-written Perfetto encoder replaced. The exporter must write exactly
// its bytes and fail exactly where it fails.

type pfMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type pfComplete struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type pfInstant struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s"`
	Args map[string]any `json:"args,omitempty"`
}

type refPerfetto struct {
	w       bytes.Buffer
	tids    map[string]int
	nextTid int
	n       int
	err     error
}

func newRefPerfetto() *refPerfetto {
	p := &refPerfetto{tids: map[string]int{}, nextTid: tidKernel + 1}
	p.w.WriteString("[")
	p.meta("process_name", 1, tidKernel, map[string]any{"name": "rtk-spec-tron"})
	p.meta("thread_name", 1, tidKernel, map[string]any{"name": "kernel"})
	return p
}

func (p *refPerfetto) close() ([]byte, error) {
	p.w.WriteString("\n]\n")
	return p.w.Bytes(), p.err
}

func (p *refPerfetto) tid(thread string) int {
	if thread == "" {
		return tidKernel
	}
	if id, ok := p.tids[thread]; ok {
		return id
	}
	id := p.nextTid
	p.nextTid++
	p.tids[thread] = id
	p.meta("thread_name", 1, id, map[string]any{"name": thread})
	return id
}

func (p *refPerfetto) handle(e event.Event) {
	switch e.Kind {
	case event.KindRunSlice:
		name := e.Obj
		if name == "" {
			name = Context(e.Ctx).String()
		}
		p.emit(pfComplete{
			Name: name, Cat: Context(e.Ctx).String(), Ph: "X",
			Ts: refUs(e.Start), Dur: refUs(e.Time - e.Start),
			Pid: 1, Tid: p.tid(e.Thread),
			Args: map[string]any{"energy_j": float64(e.Energy)},
		})
	case event.KindSvcExit:
		p.instant(e, e.Obj, map[string]any{"er": e.Code})
	case event.KindSvcEnter:
		p.instant(e, e.Obj, nil)
	case event.KindPreempt, event.KindBlock, event.KindRelease:
		var args map[string]any
		if e.Obj != "" {
			args = map[string]any{"detail": e.Obj}
		}
		p.instant(e, e.Kind.String(), args)
	case event.KindIntEnter:
		p.instant(e, e.Kind.String(), map[string]any{"depth": e.Seq})
	case event.KindTimerFire:
		p.instant(e, e.Kind.String(), map[string]any{"armed_us": refUs(e.Start), "seq": e.Seq})
	default:
		p.instant(e, e.Kind.String(), nil)
	}
}

func (p *refPerfetto) instant(e event.Event, name string, args map[string]any) {
	p.emit(pfInstant{
		Name: name, Cat: e.Kind.String(), Ph: "i",
		Ts: refUs(e.Time), Pid: 1, Tid: p.tid(e.Thread), S: "t",
		Args: args,
	})
}

func (p *refPerfetto) meta(name string, pid, tid int, args map[string]any) {
	p.emit(pfMeta{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args})
}

func (p *refPerfetto) emit(rec any) {
	if p.err != nil {
		return
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		p.err = err
		return
	}
	if p.n > 0 {
		p.w.WriteString(",\n")
	} else {
		p.w.WriteString("\n")
	}
	p.w.Write(buf)
	p.n++
}

func refUs(t sysc.Time) float64 { return float64(t) / 1e6 }

// encode feeds evs to an exporter, streaming to a sink when streamed is set
// and keeping the trace in its store otherwise, and returns the trace.
func encode(streamed bool, evs ...event.Event) ([]byte, error) {
	var sink bytes.Buffer
	var w io.Writer
	if streamed {
		w = &sink
	}
	p := AttachPerfetto(event.NewBus(), w)
	for _, e := range evs {
		p.handle(e)
	}
	err := p.Close()
	if streamed {
		return sink.Bytes(), err
	}
	return p.Bytes(), err
}

// encodeRef feeds evs to the reference encoder.
func encodeRef(evs ...event.Event) ([]byte, error) {
	ref := newRefPerfetto()
	for _, e := range evs {
		ref.handle(e)
	}
	return ref.close()
}

// checkAgainstRef holds both the streamed and the kept trace of evs to the
// reference encoder.
func checkAgainstRef(t *testing.T, evs ...event.Event) {
	t.Helper()
	want, wantErr := encodeRef(evs...)
	for _, streamed := range []bool{false, true} {
		got, gotErr := encode(streamed, evs...)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("streamed=%v: error: got %v, reference %v", streamed, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("streamed=%v: bytes differ from encoding/json\n got: %q\nwant: %q", streamed, got, want)
		}
	}
}

// FuzzPerfettoRecord holds every record kind, kept and streamed, to the
// encoding/json oracle: arbitrary names (escapes, control bytes, U+2028,
// invalid UTF-8), negative and beyond-2^52 ps times, tiny, huge and
// non-finite energies. Each event is published twice so both the new-row
// and the known-row paths encode it, and a memoized energy is reused.
func FuzzPerfettoRecord(f *testing.F) {
	f.Add(byte(0), byte(1), 0, int64(4*sysc.Ms), int64(sysc.Ms), uint64(0), 0.002, "worker", "step")
	f.Add(byte(2), byte(0), -52, int64(1), int64(0), uint64(0), 0.0, "", `a<b>&"c\d`)
	f.Add(byte(14), byte(3), 0, int64(1)<<53+7, int64(-3), uint64(1)<<63, 1e21, "t\u2028x", "\xff\x00\t")
	f.Add(byte(0), byte(9), 0, int64(-1), int64(math.MaxInt64), uint64(9), 1e-7, "élève", "")
	f.Add(byte(0), byte(1), 0, int64(5), int64(1), uint64(0), math.NaN(), "nan", "")
	f.Fuzz(func(t *testing.T, kind, ctx byte, code int, at, start int64, seq uint64, energy float64, thread, obj string) {
		e := event.Event{
			Kind: pfKinds[int(kind)%len(pfKinds)], Ctx: ctx, Code: code,
			Time: sysc.Time(at), Start: sysc.Time(start), Seq: seq,
			Energy: petri.Energy(energy), Thread: thread, Obj: obj,
		}
		checkAgainstRef(t, e, e)
	})
}

// TestPerfettoEveryKindMatchesReference encodes one record of every kind,
// with and without optional args, on the kernel row and a thread row.
func TestPerfettoEveryKindMatchesReference(t *testing.T) {
	var evs []event.Event
	for i, k := range pfKinds {
		for _, obj := range []string{"", "obj<&>"} {
			evs = append(evs, event.Event{
				Kind: k, Ctx: uint8(i % 7), Code: -i, Seq: uint64(i),
				Time: sysc.Time(i) * 1234567, Start: sysc.Time(i) * 1000,
				Energy: petri.Energy(i) * 1e-9, Thread: []string{"", "t"}[i%2], Obj: obj,
			})
		}
	}
	checkAgainstRef(t, evs...)
}

// TestPerfettoNonFiniteEnergyIsError: a NaN or infinite energy has no JSON
// form. The record is dropped, no later record is written, and Close
// reports the error, exactly as encoding/json refused it.
func TestPerfettoNonFiniteEnergyIsError(t *testing.T) {
	for _, energy := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		slice := event.Event{Kind: event.KindRunSlice, Thread: "a", Ctx: 1,
			Start: sysc.Ms, Time: 2 * sysc.Ms, Energy: petri.Energy(energy)}
		after := event.Event{Kind: event.KindDispatch, Thread: "b", Time: 3 * sysc.Ms}
		for _, streamed := range []bool{false, true} {
			got, gotErr := encode(streamed, slice, after)
			if gotErr == nil {
				t.Fatalf("energy %v: Close returned no error", energy)
			}
			if bytes.Contains(got, []byte("NaN")) || bytes.Contains(got, []byte("Inf")) {
				t.Fatalf("energy %v: non-finite value written: %s", energy, got)
			}
			if n, err := ValidatePerfetto(bytes.NewReader(got)); err != nil || n != 3 {
				t.Fatalf("energy %v: trace before the error: n=%d err=%v", energy, n, err)
			}
		}
		checkAgainstRef(t, slice, after)
	}
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "plain", `q"b\s`, "<a href='x'>&amp;</a>", "\x00\x01\b\f\n\r\t\x1f\x7f",
		"\u2028\u2029", "café 日本", "\xff", "a\xc3", "\xed\xa0\x80", "\U0001F600",
	}
	rng := rand.New(rand.NewPCG(1, 2))
	alphabet := []string{"a", "<", ">", "&", `"`, `\`, "\x00", "\n", "\x7f", "é", "\u2028", "\u2029", "\xff", "\xe2\x80"}
	for range 2000 {
		var sb strings.Builder
		for range rng.IntN(12) {
			sb.WriteString(alphabet[rng.IntN(len(alphabet))])
		}
		cases = append(cases, sb.String())
	}
	for _, s := range cases {
		want, _ := json.Marshal(s)
		if got := AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s, want %s", s, got, want)
		}
	}
}

func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-300, 5e-324,
		1e20, 1e21, -1e21, 123456789e13, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for range 20000 {
		cases = append(cases, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.IntN(60)-30)))
	}
	for _, f := range cases {
		want, wantErr := json.Marshal(f)
		got, err := AppendJSONFloat(nil, f)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%v: error %v, encoding/json %v", f, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%v: got %s, want %s", f, got, want)
		}
	}
}

// TestAppendUsMatchesFloat checks the integer timestamp path against
// strconv over every picosecond count below 2^20 and a random sample up to
// and beyond 2^52, where the float fallback takes over.
func TestAppendUsMatchesFloat(t *testing.T) {
	check := func(ps int64) {
		want := strconv.AppendFloat(nil, float64(ps)/1e6, 'f', -1, 64)
		if got := appendUs(nil, sysc.Time(ps)); !bytes.Equal(got, want) {
			t.Fatalf("%d ps: got %s, want %s", ps, got, want)
		}
	}
	for ps := int64(0); ps < 1<<20; ps++ {
		check(ps)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for range 200000 {
		check(rng.Int64N(1 << 53))
		check(-rng.Int64N(1 << 40))
		check(1<<52 - 1 - rng.Int64N(1<<20))
	}
}

// TestPerfettoRecordZeroAlloc: once a thread's row exists, encoding and
// writing a record of any kind reaches no allocator, except that a kept
// trace allocates one fresh segment per segSize bytes.
func TestPerfettoRecordZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, w := range []io.Writer{io.Discard, nil} {
		b := event.NewBus()
		p := AttachPerfetto(b, w)
		evs := benchEvents()
		for _, e := range evs { // assign rows
			b.Publish(e)
		}
		p.segs = make([][]byte, 0, 1024) // keep the segment list from growing
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range 2000 {
			for _, e := range evs {
				b.Publish(e)
			}
		}
		runtime.ReadMemStats(&m1)
		allocs, sealed := m1.Mallocs-m0.Mallocs, uint64(len(p.segs))
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if w == nil && sealed < 10 {
			t.Fatalf("kept trace sealed %d segments, want a run long enough for 10", sealed)
		}
		if allocs != sealed {
			t.Fatalf("sink=%v: %d allocs for %d records and %d new segments", w != nil, allocs, 2000*len(evs), sealed)
		}
	}
}

// storeEvents is a long record mix: names of random length, some longer
// than segReserve and a few longer than a whole segment, so records
// straddle and overflow segment boundaries.
func storeEvents(seed uint64, n int, threads []string) []event.Event {
	rng := rand.New(rand.NewPCG(seed, 7))
	evs := make([]event.Event, n)
	for i := range evs {
		length := rng.IntN(80)
		switch rng.IntN(40) {
		case 0:
			length = segReserve + rng.IntN(600)
		case 1:
			length = segSize + rng.IntN(segSize)
		}
		evs[i] = event.Event{
			Kind: pfKinds[rng.IntN(len(pfKinds))], Ctx: uint8(rng.IntN(7)), Code: -rng.IntN(60),
			Time: sysc.Time(i) * 1234567, Start: sysc.Time(i) * 1000, Seq: uint64(i),
			Energy: petri.Energy(rng.IntN(40)) * 1e-7,
			Thread: threads[rng.IntN(len(threads))], Obj: strings.Repeat("<é", length/2),
		}
	}
	return evs
}

// sizeRecorder records the size of every write it receives.
type sizeRecorder struct {
	bytes.Buffer
	sizes []int
}

func (r *sizeRecorder) Write(b []byte) (int, error) {
	r.sizes = append(r.sizes, len(b))
	return r.Buffer.Write(b)
}

// TestPerfettoStoreSegments: a trace spanning many segments, with records
// crossing segment boundaries and records longer than a segment, matches
// the reference encoder both kept and streamed. Kept segments are never
// larger than segSize; the sink receives whole segments.
func TestPerfettoStoreSegments(t *testing.T) {
	evs := storeEvents(1, 3000, []string{"", "a", "worker<1>", "\u2028"})
	checkAgainstRef(t, evs...)

	p := AttachPerfetto(event.NewBus(), nil)
	var rec sizeRecorder
	s := AttachPerfetto(event.NewBus(), &rec)
	var mid []byte
	for i, e := range evs {
		p.handle(e)
		s.handle(e)
		if i == len(evs)/2 {
			mid = p.Bytes() // a harvest that leaves the exporter recording
		}
	}
	if len(p.segs) < 3 {
		t.Fatalf("%d sealed segments, want at least 3", len(p.segs))
	}
	for i, seg := range p.segs {
		if cap(seg) != segSize {
			t.Fatalf("segment %d: cap %d, want %d", i, cap(seg), segSize)
		}
	}
	if err := errors.Join(p.Close(), s.Close()); err != nil {
		t.Fatal(err)
	}
	for i, n := range rec.sizes {
		if n > segSize {
			t.Fatalf("write %d: %d bytes, want at most one segment", i, n)
		}
	}
	if !bytes.Equal(p.Bytes(), rec.Bytes()) {
		t.Fatal("kept and streamed traces differ")
	}
	if body := mid[:len(mid)-len(arrayEnd)]; !bytes.HasPrefix(p.Bytes(), body) || string(mid[len(body):]) != arrayEnd {
		t.Fatal("the mid-run copy is not the trace so far, terminated")
	}
	if _, err := ValidatePerfetto(bytes.NewReader(mid)); err != nil {
		t.Fatalf("mid-run copy: %v", err)
	}
	if out := p.Bytes(); cap(out) != len(out) {
		t.Fatalf("artifact cap %d, len %d: want exact size", cap(out), len(out))
	}
}

// TestPerfettoLoadStateEarlierSegment rewinds a kept trace to a mark that
// has since been sealed into an earlier segment, twice, with different
// continuations: each result must equal a run that never rewound, and a
// copy taken before the rewind must not change.
func TestPerfettoLoadStateEarlierSegment(t *testing.T) {
	threads := []string{"", "a", "b"}
	prefix := storeEvents(2, 200, threads)
	b := event.NewBus()
	p := AttachPerfetto(b, nil)
	for _, e := range prefix {
		b.Publish(e)
	}
	st := p.SaveState()
	var prev []byte
	for seed := uint64(3); seed < 6; seed++ {
		// New thread names after the mark must get their rows again.
		more := storeEvents(seed, 1500, []string{"", "a", "c", "d"})
		if seed > 3 {
			p.LoadState(st)
			if p.base > st.mark || p.base+len(p.cur) != st.mark {
				t.Fatalf("rewound to byte %d of segment at %d, want the mark at byte %d", len(p.cur), p.base, st.mark)
			}
		}
		for _, e := range more {
			b.Publish(e)
		}
		if off := markSegment(p.segs, st.mark); off < 0 || off == st.mark || st.mark+segSize > p.base {
			t.Fatalf("mark at byte %d is not inside an earlier segment (%d sealed, %d bytes)", st.mark, len(p.segs), p.base)
		}
		saved := bytes.Clone(prev)
		got := p.Bytes()
		want, err := encode(false, append(append([]event.Event(nil), prefix...), more...)...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: rewound trace differs from a straight run", seed)
		}
		if !bytes.Equal(prev, saved) {
			t.Fatalf("seed %d: the previous variant's trace changed", seed)
		}
		prev = got
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// markSegment returns the offset of the sealed segment holding byte mark,
// or -1.
func markSegment(segs [][]byte, mark int) int {
	off := 0
	for _, s := range segs {
		if mark < off+len(s) {
			return off
		}
		off += len(s)
	}
	return -1
}

// TestPerfettoLoadStateRefusesLostBytes: bytes a sink already received
// cannot be taken back, and a store cut back below a mark no longer holds
// the bytes up to it, so loading either state is an error Close reports.
func TestPerfettoLoadStateRefusesLostBytes(t *testing.T) {
	evs := storeEvents(4, 1000, []string{"a"})

	s := AttachPerfetto(event.NewBus(), io.Discard)
	st := s.SaveState()
	for _, e := range evs {
		s.handle(e)
	}
	s.LoadState(st)
	if err := s.Close(); err == nil {
		t.Fatal("rewinding a streamed trace past sent bytes: Close returned no error")
	}

	k := AttachPerfetto(event.NewBus(), nil)
	early := k.SaveState()
	for _, e := range evs {
		k.handle(e)
	}
	late := k.SaveState()
	k.LoadState(early)
	k.LoadState(late)
	if err := k.Close(); err == nil {
		t.Fatal("loading a mark beyond the store: Close returned no error")
	}
}

// benchEvents is a steady-state record mix on known rows: run slices,
// service calls, scheduling instants, an interrupt and a timer fire.
func benchEvents() []event.Event {
	return []event.Event{
		{Kind: event.KindDispatch, Thread: "producer", Time: 1000 * sysc.Us},
		{Kind: event.KindSvcEnter, Thread: "producer", Time: 1001 * sysc.Us, Obj: "tk_wai_sem"},
		{Kind: event.KindSvcExit, Thread: "producer", Time: 1003 * sysc.Us, Obj: "tk_wai_sem", Code: -50},
		{Kind: event.KindRunSlice, Thread: "producer", Ctx: 1, Start: 1003 * sysc.Us,
			Time: 1013*sysc.Us + 250*sysc.Ns, Energy: 1.5e-6, Obj: "produce"},
		{Kind: event.KindBlock, Thread: "producer", Time: 1014 * sysc.Us, Obj: "sem"},
		{Kind: event.KindPreempt, Thread: "consumer", Time: 1015 * sysc.Us},
		{Kind: event.KindIntEnter, Time: 1016 * sysc.Us, Seq: 1},
		{Kind: event.KindTimerFire, Time: 1017 * sysc.Us, Start: 17 * sysc.Us, Seq: 42},
	}
}

func BenchmarkPerfettoRecord(b *testing.B) {
	bus := event.NewBus()
	p := AttachPerfetto(bus, io.Discard)
	evs := benchEvents()
	for _, e := range evs {
		bus.Publish(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		bus.Publish(evs[i%len(evs)])
	}
	b.StopTimer()
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
}
