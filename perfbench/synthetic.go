package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"time"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/run"
	"repro/internal/sweep"
	"repro/internal/sysc"
	"repro/internal/tkernel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// synthetic runs seeded generated task sets cold through run.Execute with
// the Perfetto trace and the metrics report: the bare kernel data path
// plus the event bus and its observers, with no BFM or GUI. The pool of
// distinct Specs is cycled, so every op has a reference to match.
type synthetic struct {
	specs []synSpec
	order []int

	// Traced runs only: per-op layer measurements.
	obs []synObs
}

type synSpec struct {
	spec run.Spec
	ref  [2][sha256.Size]byte // trace.json, metrics.json of the first run
}

// synObs is what one traced op measured.
type synObs struct {
	wall, plainWall       time.Duration // with artifacts / same Spec stats-only
	generate, build, boot time.Duration
	writeJSON             time.Duration
	allocs                uint64
	events, traceBytes    int
	ctxsw, ticks          uint64
}

const (
	// synPool is the number of distinct Specs per run. Their generator
	// parameters are stratified over the ranges below, so the mix of
	// cheap and expensive task sets differs little from seed to seed.
	synPool = 256
	synDur  = 100 * time.Millisecond
	// genStream is the sweep.Seed stream run.Execute draws a generated
	// task set from. The traced composition below must draw from the
	// same stream; its byte comparison with run.Execute catches a drift.
	genStream = 2
)

var synArtifacts = []string{run.ArtifactTrace, run.ArtifactMetrics}

func (s *synthetic) setup(seed uint64) (time.Duration, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5e7))
	utilSlot := rng.Perm(synPool)
	s.specs = make([]synSpec, synPool)
	for i := range s.specs {
		irq := []int{-1, 1, 2}[(i/8)%3]
		gen := workload.GenSpec{
			Tasks:      3 + i%8,
			Util:       0.3 + 0.5*(float64(utilSlot[i])+rng.Float64())/synPool,
			Interrupts: irq,
		}
		s.specs[i].spec = run.Spec{
			Scenario:  run.ScenarioSynthetic,
			Seed:      rng.Uint64(),
			Dur:       run.Duration(synDur),
			Synthetic: &run.SyntheticSpec{Gen: &gen},
			Artifacts: synArtifacts,
		}
	}
	s.order = rng.Perm(synPool)

	// Warm-up: the first run of every Spec is its reference. The schema
	// check of each distinct trace is the benchmark's own work and is
	// excluded from set-up time.
	var checks time.Duration
	for i := range s.specs {
		res, err := run.Execute(context.Background(), s.specs[i].spec)
		if err != nil {
			return 0, fmt.Errorf("synthetic spec %d: %w", i, err)
		}
		c0 := time.Now()
		s.specs[i].ref = artifactSums(res.Artifacts)
		if _, err := trace.ValidatePerfetto(bytes.NewReader(res.Artifacts[run.ArtifactTrace])); err != nil {
			return 0, fmt.Errorf("synthetic spec %d: %w", i, err)
		}
		checks += time.Since(c0)
	}
	return checks, nil
}

func artifactSums(a map[string][]byte) [2][sha256.Size]byte {
	return [2][sha256.Size]byte{sha256.Sum256(a[run.ArtifactTrace]), sha256.Sum256(a[run.ArtifactMetrics])}
}

func (s *synthetic) reference() string {
	var b strings.Builder
	for _, sp := range s.specs {
		fmt.Fprintf(&b, "%x %x\n", sp.ref[0], sp.ref[1])
	}
	return b.String()
}

func (s *synthetic) run(deadline time.Time, tr *tracer, rec *recorder) error {
	for i := 0; time.Now().Before(deadline); i++ {
		sp := &s.specs[s.order[i%len(s.order)]]
		if tr != nil {
			s.tracedOp(i, sp, tr, rec)
			continue
		}
		t0 := time.Now()
		res, err := run.Execute(context.Background(), sp.spec)
		wall := time.Since(t0)
		if err == nil && artifactSums(res.Artifacts) != sp.ref {
			err = fmt.Errorf("synthetic seed %d: artifacts differ from the first run", sp.spec.Seed)
		}
		rec.op(wall, synDur.Seconds(), err)
	}
	return nil
}

// tracedOp composes the run from the layers' public calls — generate,
// build, a boot leg to 1 µs, the steady leg, then the observers' output —
// with a span around each call. It must reproduce run.Execute's artifacts
// byte for byte, or the op fails. The same Spec then runs stats-only
// through run.Execute, outside the op's time, to isolate what the
// observers cost.
func (s *synthetic) tracedOp(i int, sp *synSpec, tr *tracer, rec *recorder) {
	var o synObs
	spec := sp.spec
	root := tr.begin("synthetic.op", i, -1)

	g := tr.begin("workload.Generate", i, root)
	ts := workload.Generate(sweep.NewRNG(sweep.Seed(spec.Seed, genStream)), *spec.Synthetic.Gen)
	o.generate = tr.end(g)

	bus := event.NewBus()
	var traceBuf, metricsBuf bytes.Buffer
	pf := trace.AttachPerfetto(bus, &traceBuf)
	coll := metrics.Attach(bus)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b := tr.begin("workload.build", i, root)
	sp1 := tr.begin("sysc.NewSimulator", i, b)
	sim := sysc.NewSimulator()
	tr.end(sp1)
	kcfg := tkernel.Config{Costs: tkernel.DefaultCosts()}
	kcfg.Engine = spec.Engine
	kcfg.Tick = spec.Tick.Sim()
	kcfg.Bus = bus
	sp2 := tr.begin("tkernel.New", i, b)
	k := tkernel.New(sim, kcfg)
	tr.end(sp2)
	sp3 := tr.begin("workload.Build", i, b)
	workload.Build(sim, k, ts, spec.Seed)
	tr.end(sp3)
	o.build = tr.end(b)
	runtime.ReadMemStats(&ms1)
	o.allocs = ms1.Mallocs - ms0.Mallocs

	boot := tr.begin("sysc.Start.boot", i, root)
	err := sim.Start(sysc.Us)
	o.boot = tr.end(boot)
	if err == nil {
		st := tr.begin("sysc.Start.steady", i, root)
		err = sim.Start(spec.Dur.Sim())
		tr.end(st)
	}
	c := tr.begin("trace.Close", i, root)
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	tr.end(c)
	wj := tr.begin("metrics.WriteJSON", i, root)
	if werr := coll.WriteJSON(&metricsBuf); err == nil {
		err = werr
	}
	o.writeJSON = tr.end(wj)
	sim.Shutdown()
	o.wall = tr.end(root)
	o.events = pf.Events()
	o.traceBytes = traceBuf.Len()

	if err == nil && artifactSums(map[string][]byte{
		run.ArtifactTrace: traceBuf.Bytes(), run.ArtifactMetrics: metricsBuf.Bytes(),
	}) != sp.ref {
		err = fmt.Errorf("synthetic seed %d: composed run differs from run.Execute", spec.Seed)
	}
	rec.op(o.wall, synDur.Seconds(), err)

	plain := spec
	plain.Artifacts = nil
	t0 := time.Now()
	res, perr := run.Execute(context.Background(), plain)
	o.plainWall = time.Since(t0)
	if perr != nil {
		rec.fail(fmt.Errorf("synthetic seed %d stats-only: %w", spec.Seed, perr))
		return
	}
	o.ctxsw, o.ticks = res.Stats.CtxSwitches, res.Stats.Ticks
	s.obs = append(s.obs, o)
}

func (s *synthetic) verify() error { return nil }

func (s *synthetic) layers(_ *tracer, m metricSet, _ map[string]tail) {
	var gen, build, boot, wj, allocs, share, nsEvent, obsShare, nsCtx, nsTick []float64
	var events, bytes int
	var ctxsw uint64
	for _, o := range s.obs {
		gen = append(gen, float64(o.generate)/1e3)
		build = append(build, float64(o.build)/1e3)
		boot = append(boot, float64(o.boot)/1e3)
		wj = append(wj, float64(o.writeJSON)/1e3)
		allocs = append(allocs, float64(o.allocs))
		share = append(share, float64(o.build+o.boot)/float64(o.wall))
		nsEvent = append(nsEvent, float64(o.wall-o.plainWall)/float64(o.events))
		obsShare = append(obsShare, float64(o.wall-o.plainWall)/float64(o.wall))
		nsCtx = append(nsCtx, float64(o.plainWall)/float64(o.ctxsw))
		nsTick = append(nsTick, float64(o.plainWall)/float64(o.ticks))
		events += o.events
		bytes += o.traceBytes
		ctxsw += o.ctxsw
	}
	m.set("workload.generate_us", median(gen), "us")
	m.set("workload.build_us", median(build), "us")
	m.set("workload.build_allocs", median(allocs), "count")
	m.set("workload.boot_us", median(boot), "us")
	m.set("workload.build_share", median(share), "ratio")
	m.set("trace.ns_per_event", median(nsEvent), "ns")
	m.set("trace.bytes_per_event", float64(bytes)/float64(events), "B")
	m.set("metrics.write_json_us", median(wj), "us")
	m.set("observers.share", median(obsShare), "ratio")
	m.set("tkernel.host_ns_per_ctxsw", median(nsCtx), "ns")
	m.set("tkernel.host_ns_per_tick", median(nsTick), "ns")
	m.set("tkernel.ctxsw_per_simsec", float64(ctxsw)/(float64(len(s.obs))*synDur.Seconds()), "1/s")
}

func (s *synthetic) close() {}
