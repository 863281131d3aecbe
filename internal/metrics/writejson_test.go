package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/petri"
	"repro/internal/sysc"
)

// refWriteJSON is the reference writer: the json.Encoder path WriteJSON
// replaced. WriteJSON must write exactly its bytes and fail where it fails.
func refWriteJSON(w io.Writer, r Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func checkReport(t *testing.T, r Report) {
	t.Helper()
	var want bytes.Buffer
	wantErr := refWriteJSON(&want, r)
	got, err := r.appendJSON()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("error: got %v, reference %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("bytes differ from encoding/json\n got: %s\nwant: %s", got, want.Bytes())
	}
}

// randFloat draws from the float shapes the encoder must format alike:
// zeros, integers, fractions, the 'e' notation bands below 1e-6 and from
// 1e21, and arbitrary finite bit patterns.
func randFloat(rng *rand.Rand) float64 {
	switch rng.IntN(6) {
	case 0:
		return []float64{0, math.Copysign(0, -1), 1e-6, 1e21, 5e-324, math.MaxFloat64}[rng.IntN(6)]
	case 1:
		return float64(rng.Int64N(1 << 40))
	case 2:
		return rng.Float64() * 1e6
	case 3:
		return rng.Float64() * 1e-9
	case 4:
		return rng.NormFloat64() * 1e25
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func randString(rng *rand.Rand) string {
	parts := []string{"task", "<", ">", "&", `"`, `\`, "\x01", "\n", "é", "\u2028", "\xff"}
	var sb strings.Builder
	for range rng.IntN(5) {
		sb.WriteString(parts[rng.IntN(len(parts))])
	}
	return sb.String()
}

func randHistogram(rng *rand.Rand) Histogram {
	h := Histogram{Count: rng.Uint64(), SumUs: randFloat(rng), MaxUs: randFloat(rng)}
	for i := range h.Buckets {
		if rng.IntN(3) == 0 {
			h.Buckets[i] = rng.Uint64() >> rng.IntN(64)
		}
	}
	return h
}

// randRows returns nil, an empty slice or n rows, so the reference's null
// and [] forms are both covered.
func randRows[T any](rng *rand.Rand, row func() T) []T {
	switch rng.IntN(4) {
	case 0:
		return nil
	case 1:
		return []T{}
	}
	rows := make([]T, 1+rng.IntN(4))
	for i := range rows {
		rows[i] = row()
	}
	return rows
}

// TestWriteJSONMatchesEncoder is the property test: random reports encode
// to the reference's bytes.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for range 2000 {
		checkReport(t, Report{
			SimTimeUs: randFloat(rng),
			Tasks: randRows(rng, func() TaskMetrics {
				return TaskMetrics{
					Thread: randString(rng), Dispatches: rng.Uint64(), Preemptions: rng.Uint64N(100),
					CETUs: randFloat(rng), CEEJoules: randFloat(rng),
					DispatchLatency: randHistogram(rng), WaitTime: randHistogram(rng),
				}
			}),
			Contexts: randRows(rng, func() ContextMetrics {
				return ContextMetrics{Context: randString(rng), TimeUs: randFloat(rng),
					Joules: randFloat(rng), Slices: rng.Uint64()}
			}),
		})
	}
}

// TestWriteJSONCollectorMatchesEncoder drives a collector with a random
// event stream and compares WriteJSON with the reference on its report.
func TestWriteJSONCollectorMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	kinds := []event.Kind{event.KindRunSlice, event.KindDispatch, event.KindPreempt,
		event.KindBlock, event.KindRelease, event.KindActivate}
	threads := []string{"", "idle", "a", "b<c>"}
	for range 50 {
		b := event.NewBus()
		c := Attach(b)
		var at sysc.Time
		for range rng.IntN(200) {
			start := at
			at += sysc.Time(rng.Int64N(int64(3 * sysc.Ms)))
			b.Publish(event.Event{Kind: kinds[rng.IntN(len(kinds))], Thread: threads[rng.IntN(len(threads))],
				Ctx: uint8(rng.IntN(7)), Start: start, Time: at, Energy: petri.Energy(rng.Float64() * 1e-3)})
		}
		var got, want bytes.Buffer
		if err := c.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := refWriteJSON(&want, c.Report()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("bytes differ from encoding/json\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
		}
	}
}

// TestWriteJSONNonFiniteIsError: a NaN or infinite energy has no JSON form.
// WriteJSON writes nothing and returns an error, as json.Encoder did.
func TestWriteJSONNonFiniteIsError(t *testing.T) {
	for _, energy := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := event.NewBus()
		c := Attach(b)
		b.Publish(event.Event{Kind: event.KindRunSlice, Thread: "a", Ctx: 1,
			Start: 0, Time: sysc.Ms, Energy: petri.Energy(energy)})
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err == nil {
			t.Fatalf("energy %v: WriteJSON returned no error", energy)
		}
		if buf.Len() != 0 {
			t.Fatalf("energy %v: wrote %q", energy, buf.Bytes())
		}
		checkReport(t, c.Report())
	}
}

func BenchmarkMetricsWriteJSON(b *testing.B) {
	bus := event.NewBus()
	c := Attach(bus)
	for i := range 8 {
		thread := string(rune('a' + i))
		at := sysc.Time(i) * sysc.Ms
		bus.Publish(ev(event.KindActivate, thread, at))
		bus.Publish(ev(event.KindDispatch, thread, at+sysc.Us))
		bus.Publish(event.Event{Kind: event.KindRunSlice, Thread: thread, Ctx: uint8(1 + i%3),
			Start: at + sysc.Us, Time: at + 300*sysc.Us, Energy: 3e-6})
	}
	b.ReportAllocs()
	for range b.N {
		if err := c.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
