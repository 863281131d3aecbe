package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
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

// encodeBoth feeds evs to the exporter and to the reference encoder.
func encodeBoth(evs ...event.Event) (got, want []byte, gotErr, wantErr error) {
	var buf bytes.Buffer
	p := AttachPerfetto(event.NewBus(), &buf)
	ref := newRefPerfetto()
	for _, e := range evs {
		p.handle(e)
		ref.handle(e)
	}
	gotErr = p.Close()
	want, wantErr = ref.close()
	return buf.Bytes(), want, gotErr, wantErr
}

func checkAgainstRef(t *testing.T, evs ...event.Event) {
	t.Helper()
	got, want, gotErr, wantErr := encodeBoth(evs...)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error: got %v, reference %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes differ from encoding/json\n got: %q\nwant: %q", got, want)
	}
}

// FuzzPerfettoRecord holds every record kind to the encoding/json oracle:
// arbitrary names (escapes, control bytes, U+2028, invalid UTF-8), negative
// and beyond-2^52 ps times, tiny, huge and non-finite energies. Each event
// is published twice so both the new-row and the known-row paths encode it.
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
		got, _, gotErr, _ := encodeBoth(slice, after)
		if gotErr == nil {
			t.Fatalf("energy %v: Close returned no error", energy)
		}
		if bytes.Contains(got, []byte("NaN")) || bytes.Contains(got, []byte("Inf")) {
			t.Fatalf("energy %v: non-finite value written: %s", energy, got)
		}
		if n, err := ValidatePerfetto(bytes.NewReader(got)); err != nil || n != 3 {
			t.Fatalf("energy %v: trace before the error: n=%d err=%v", energy, n, err)
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
// writing a record of any kind reaches no allocator.
func TestPerfettoRecordZeroAlloc(t *testing.T) {
	b := event.NewBus()
	p := AttachPerfetto(b, io.Discard)
	evs := benchEvents()
	for _, e := range evs { // assign rows and grow the scratch buffer
		b.Publish(e)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, e := range evs {
			b.Publish(e)
		}
	})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per %d records, want 0", allocs, len(evs))
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
