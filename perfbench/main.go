// Command perfbench is the repository's benchmark: it drives the simulator
// through its public packages on one of three workloads, checks every
// operation's output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer ledger) as one JSON object on the last line of
// standard output.
//
//	bash perfbench/run.sh --workload table2 --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and which layer metric is
// expected to move which end-to-end metric on which workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart approximates process start: package initialization runs
// right after the runtime starts.
var processStart = time.Now()

// setupReps is how many times a run sets its workload up; setup_s is the
// median. Every repetition must reproduce the same reference outputs.
const setupReps = 3

// mix is one workload: a traffic mix. A value is set up once and driven
// once.
type mix interface {
	// setup generates the inputs from the seed, constructs what the timed
	// phase needs and warms it up, recording the reference outputs the
	// timed ops are checked against. It returns the time it spent in the
	// benchmark's own checks, which setup_s excludes.
	setup(seed uint64) (checks time.Duration, err error)
	// reference digests the reference outputs, so set-up repetitions can
	// be compared.
	reference() string
	// run performs ops until the deadline, recording each into rec and
	// tracing calls into tr when it is non-nil.
	run(deadline time.Time, tr *tracer, rec *recorder) error
	// verify runs the checks that need the whole timed phase.
	verify() error
	// layers adds the per-layer metrics this workload exposes, from its
	// traced ops and the spans in tr, and the tail summaries behind them.
	layers(tr *tracer, m metricSet, tails map[string]tail)
	close()
}

func newWorkload(name string) (mix, error) {
	switch name {
	case "table2":
		return &table2{}, nil
	case "synthetic":
		return &synthetic{}, nil
	case "serve":
		return &serve{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want table2, synthetic or serve)", name)
}

var workloadNames = []string{"table2", "synthetic", "serve"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: table2, synthetic or serve")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer ledger")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if _, err := newWorkload(*name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var res result
	var led ledger
	var err error
	if *traced == 1 {
		res, led, err = tracedRun(*name, *seed, dur)
	} else {
		res, led, err = untracedRun(*name, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	led.Workload, led.Seed, led.Seconds, led.Trace = *name, *seed, *seconds, *traced
	led.Host = fingerprint(".")
	led.Result = res
	path, err := led.write()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: ledger:", err)
		os.Exit(1)
	}
	report(os.Stdout, led, path)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// ledger is the full record of a run, written under .bench_build: the
// result line plus what does not fit in it — host fingerprint, the tail
// percentiles with their sample counts, and in traced runs the per-layer
// span summary and the spans themselves.
type ledger struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Seconds  int             `json:"seconds"`
	Trace    int             `json:"trace"`
	Host     hostInfo        `json:"host"`
	Result   result          `json:"result"`
	Tails    map[string]tail `json:"tails,omitempty"`
	Setups   []float64       `json:"setup_s_each,omitempty"`
	// Quantiles spread the op times of an untraced run.
	Quantiles map[string]float64   `json:"latency_quantiles,omitempty"`
	Layers    map[string]layerStat `json:"layers,omitempty"`
	Spans     map[string][]span    `json:"spans,omitempty"`
}

func (l ledger) write() (string, error) {
	dir := filepath.Join(".bench_build", "perfbench", "ledgers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", l.Workload, l.Seed, l.Trace))
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// report prints the human-readable summary that precedes the result line.
func report(w *os.File, l ledger, path string) {
	h := l.Host
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, tree %.12s\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.TreeSHA256)
	fmt.Fprintf(w, "workload %s seed %d: %d ops attempted, %d failed (error_rate %.4g)\n",
		l.Workload, l.Seed, l.Result.Attempted, l.Result.Failed,
		float64(l.Result.Failed)/float64(max(l.Result.Attempted, 1)))
	names := make([]string, 0, len(l.Result.Metrics))
	for n := range l.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := l.Result.Metrics[n]
		extra := ""
		if t, ok := l.Tails[n]; ok {
			extra = fmt.Sprintf("  (p%g, %d of %d samples beyond)", t.Percentile, t.Beyond, t.Samples)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-8s%s\n", n, m.Value, m.Unit, extra)
	}
	fmt.Fprintf(w, "ledger: %s\n", path)
}

// untracedRun measures the end-to-end metrics: set-up repeated setupReps
// times, then one timed phase with tracing off.
func untracedRun(name string, seed uint64, dur time.Duration) (result, ledger, error) {
	var led ledger
	var w mix
	var ref string
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		w, _ = newWorkload(name)
		checks, err := w.setup(seed)
		if err != nil {
			w.close()
			return result{}, led, fmt.Errorf("setup: %w", err)
		}
		led.Setups = append(led.Setups, (time.Since(t0) - checks).Seconds())
		if k == 0 {
			ref = w.reference()
		} else if r := w.reference(); r != ref {
			w.close()
			return result{}, led, fmt.Errorf("setup %d produced different reference outputs than setup 1", k+1)
		}
		if k < setupReps-1 {
			w.close()
		}
	}
	defer w.close()

	runtime.GC()
	rec, err := newOpRecorder(dur)
	if err != nil {
		return result{}, led, err
	}
	defer rec.release()
	if err := w.run(rec.start.Add(dur), nil, rec); err != nil {
		return result{}, led, err
	}
	elapsed := time.Since(rec.start)
	if err := w.verify(); err != nil {
		rec.fail(err)
	}

	_, concurrent := w.(*serve)
	simPerS, opsPerS, peakHeap := rec.phaseStats(elapsed, concurrent)
	lat := rec.latencies()
	tl := tailOf(lat)
	m := metricSet{}
	m.set("sim_speed", simPerS, "simsec/s")
	m.set("latency_p50_ms", quantile(lat, 0.5), "ms")
	m.set("latency_tail_ms", tl.Value, "ms")
	m.set("jobs_per_s", opsPerS, "1/s")
	m.set("setup_s", median(led.Setups), "s")
	m.set("peak_heap_mib", peakHeap/(1<<20), "MiB")
	led.Tails = map[string]tail{"latency_tail_ms": tl}
	led.Quantiles = map[string]float64{}
	for _, q := range []float64{10, 25, 50, 75, 90, 95, 99, 99.9} {
		led.Quantiles[fmt.Sprintf("latency_p%g_ms", q)] = quantile(lat, q/100)
	}
	if rec.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", rec.firstErr)
	}
	return result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: m}, led, nil
}

// tracedRun records the per-layer ledger. The layer probes run first.
// Then the named workload alternates untraced and traced blocks, which
// gives the tracing overhead, and the other two workloads run traced for
// a quarter of the time each, so every layer metric is present whichever
// workload is named.
func tracedRun(name string, seed uint64, dur time.Duration) (result, ledger, error) {
	led := ledger{Tails: map[string]tail{}, Spans: map[string][]span{}, Layers: map[string]layerStat{}}
	m := metricSet{}
	var errs []error
	total := newRecorder()

	if err := runProbes(seed, m); err != nil {
		return result{}, led, fmt.Errorf("probes: %w", err)
	}
	order := []string{name}
	for _, n := range workloadNames {
		if n != name {
			order = append(order, n)
		}
	}
	for i, n := range order {
		w, _ := newWorkload(n)
		if _, err := w.setup(seed); err != nil {
			w.close()
			return result{}, led, fmt.Errorf("%s setup: %w", n, err)
		}
		tr := newTracer()
		rec := newRecorder()
		if i == 0 {
			plain := newRecorder()
			const blocks = 6
			block := dur / 2 / blocks
			for b := 0; b < blocks; b++ {
				if err := w.run(time.Now().Add(block), nil, plain); err != nil {
					w.close()
					return result{}, led, err
				}
				if err := w.run(time.Now().Add(block), tr, rec); err != nil {
					w.close()
					return result{}, led, err
				}
			}
			if _, concurrent := w.(*serve); concurrent {
				// The serve loop keeps its clients busy for the whole block,
				// so delivered simsec per block is the comparable rate.
				m.set("tracing_overhead", plain.simsec/rec.simsec, "ratio")
			} else {
				m.set("tracing_overhead", (plain.simsec/plain.opWall.Seconds())/(rec.simsec/rec.opWall.Seconds()), "ratio")
			}
			merge(total, plain)
			if plain.firstErr != nil {
				errs = append(errs, fmt.Errorf("%s untraced: %w", n, plain.firstErr))
			}
		} else if err := w.run(time.Now().Add(dur/4), tr, rec); err != nil {
			w.close()
			return result{}, led, err
		}
		if err := w.verify(); err != nil {
			rec.fail(err)
		}
		w.layers(tr, m, led.Tails)
		w.close()
		merge(total, rec)
		if rec.firstErr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", n, rec.firstErr))
		}
		for k, v := range tr.summary() {
			led.Layers[n+"/"+k] = v
		}
		led.Spans[n] = tr.spans
	}
	if len(errs) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: failures:", errors.Join(errs...))
	}
	for _, pl := range perLayerNames {
		if _, ok := m[pl]; !ok {
			return result{}, led, fmt.Errorf("traced run produced no %s", pl)
		}
	}
	return result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: m}, led, nil
}

// merge adds src's op counts to dst.
func merge(dst, src *recorder) {
	dst.attempted += src.attempted
	dst.failed += src.failed
}

// perLayerNames lists every metric the traced run must emit, as declared in
// BENCHMARK.json.
var perLayerNames = strings.Fields(`
	sysc.thread_handoff_ns sysc.coro_handoff_ns core.consume_ns
	tkernel.svc_call_ns tkernel.ctx_switch_ns tkernel.host_ns_per_ctxsw
	tkernel.host_ns_per_tick tkernel.ctxsw_per_simsec
	workload.generate_us workload.build_us workload.build_allocs
	workload.boot_us workload.build_share
	event.publish_ns.subs0 event.publish_ns.subs1 event.publish_ns.subs4
	trace.ns_per_event trace.bytes_per_event metrics.write_json_us observers.share
	app.build_us gui.ns_per_refresh bfm.ns_per_frame
	run.parse_us run.validate_us run.canonicalize_hash_us
	cache.hit_ratio cache.coalesced_ratio cache.begin_hit_us
	server.admission_ms.p50 server.admission_ms.tail server.queue_wait_ms.mean
	server.queue_wait_ms.max server.artifact_get_ms server.rejected
	stream.first_byte_ms router.failovers router.shard_skew
	tracing_overhead`)
