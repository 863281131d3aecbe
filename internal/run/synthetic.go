package run

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/sweep"
	"repro/internal/sysc"
	"repro/internal/tkernel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// genStream is the sweep.Seed stream index the synthetic scenario draws a
// generated TaskSet from (streams 0 and 1 belong to the chaos app and fault
// schedule; interrupt device models start at workload's own base).
const genStream = 2

// resolveTaskSet returns the concrete TaskSet a synthetic spec runs: the
// inline set, or the generator draw from stream genStream of the run seed.
func resolveTaskSet(spec Spec) *workload.TaskSet {
	if spec.Synthetic.TaskSet != nil {
		return spec.Synthetic.TaskSet
	}
	return workload.Generate(sweep.NewRNG(sweep.Seed(spec.Seed, genStream)), *spec.Synthetic.Gen)
}

// synSystem is one constructed synthetic run: simulator, kernel, lowered
// workload and the observers the spec's artifact list asked for. Splitting
// construction (buildSynSystem) from driving and harvesting lets the
// checkpoint paths — two-leg runs, snapshot capture, resume-and-verify,
// warm sweep forking — share exactly the cold path's build.
type synSystem struct {
	spec Spec
	dur  sysc.Time
	ts   *workload.TaskSet

	bus         *event.Bus
	traceSink   io.Writer
	metricsSink io.Writer
	pf          *trace.Perfetto
	coll        *metrics.Collector
	g           *trace.Gantt

	sim  *sysc.Simulator
	k    *tkernel.Kernel
	inst *workload.Instance
}

// buildSynSystem constructs the synthetic system described by spec without
// running it. The caller owns shutdown (defer sys.sim.Shutdown()). Artifacts
// with a sink in o stream out incrementally instead of buffering.
func buildSynSystem(spec Spec, o StreamOptions) *synSystem {
	s := &synSystem{spec: spec, dur: spec.Dur.Sim()}
	if s.dur <= 0 {
		s.dur = 1 * sysc.Sec
	}
	s.ts = resolveTaskSet(spec)

	s.bus = event.NewBus()
	if wants(spec, ArtifactTrace) {
		s.traceSink = o.sink(ArtifactTrace)
		s.pf = trace.AttachPerfetto(s.bus, s.traceSink)
	}
	s.metricsSink = o.sink(ArtifactMetrics)
	if wants(spec, ArtifactMetrics) {
		s.coll = metrics.Attach(s.bus)
	}
	if wants(spec, ArtifactGantt) {
		s.g = trace.NewGantt()
		s.g.SetLimit(ganttLimit)
	}

	s.sim = sysc.NewSimulator()
	kcfg := tkernel.Config{Costs: tkernel.DefaultCosts()}
	kcfg.Tick = spec.Tick.Sim()
	kcfg.DisableTickless = !boolOr(spec.Tickless, true)
	kcfg.Bus = s.bus
	kcfg.Gantt = s.g
	s.k = tkernel.New(s.sim, kcfg)
	s.inst = workload.Build(s.sim, s.k, s.ts, spec.Seed)
	return s
}

// snapSystem bundles the live pieces for the snapshot layer.
func (s *synSystem) snapSystem() snapshot.System {
	return snapshot.System{
		Sim: s.sim, Kernel: s.k, Inst: s.inst,
		Gantt: s.g, Perfetto: s.pf, Metrics: s.coll,
	}
}

// stats assembles the deterministic stats digest at the current sim time.
func (s *synSystem) stats(wall time.Duration) Stats {
	simNs := time.Duration(s.sim.Now() / sysc.Ns)
	st := Stats{
		Scenario:    ScenarioSynthetic,
		SimTime:     Duration(simNs),
		Wall:        Duration(wall),
		Ticks:       s.k.Ticks(),
		CtxSwitches: s.k.API().ContextSwitches(),
		Preemptions: s.k.API().Preemptions(),
		Interrupts:  s.k.API().Interrupts(),
		Activations: s.inst.Activations(),
	}
	if wall > 0 {
		st.SimPerWall = simNs.Seconds() / wall.Seconds()
	}
	return st
}

// result wraps the stats digest for artifact harvesting.
func (s *synSystem) result(wall time.Duration) Result {
	return Result{Stats: s.stats(wall), Artifacts: map[string][]byte{}}
}

// harvest collects the requested artifacts into res. closeTrace selects how
// the Perfetto array is terminated: true detaches and closes the exporter
// (the normal end-of-run path); false leaves it attached and takes a copy
// of the records so far with the same terminator Close would write, so a
// warm-sweep worker can harvest one forked variant and keep the exporter
// alive for the next. Both paths produce identical bytes.
func (s *synSystem) harvest(res *Result, runErr *error, closeTrace bool) {
	if s.pf != nil {
		if closeTrace {
			if err := s.pf.Close(); err != nil && *runErr == nil {
				*runErr = fmt.Errorf("run: trace: %w", err)
			}
		}
		if s.traceSink == nil {
			res.Artifacts[ArtifactTrace] = s.pf.Bytes()
		}
		res.Stats.TraceEvents = s.pf.Events()
	}
	if s.coll != nil {
		if s.metricsSink != nil {
			if err := s.coll.WriteJSON(s.metricsSink); err != nil && *runErr == nil {
				*runErr = fmt.Errorf("run: metrics: %w", err)
			}
		} else {
			b, err := s.coll.JSON()
			if err != nil && *runErr == nil {
				*runErr = fmt.Errorf("run: metrics: %w", err)
			}
			res.Artifacts[ArtifactMetrics] = b
		}
	}
	if s.g != nil {
		var buf bytes.Buffer
		s.g.Render(&buf, 0, ganttWindow, 100)
		res.Artifacts[ArtifactGantt] = exact(&buf)
	}
	if wants(s.spec, ArtifactTaskSet) {
		b, err := json.MarshalIndent(s.ts, "", "  ")
		if err != nil && *runErr == nil {
			*runErr = fmt.Errorf("run: taskset: %w", err)
		}
		res.Artifacts[ArtifactTaskSet] = bytes.Clone(append(b, '\n'))
	}
}

// encodeSnapshot captures the system at the current quiescent point and
// encodes the versioned binary snapshot, embedding the producing spec in
// canonical form with the checkpoint and artifact requests erased — the
// embedded spec describes the plain run whose replay reproduces this state.
func (s *synSystem) encodeSnapshot() ([]byte, error) {
	st, err := snapshot.Capture(s.snapSystem())
	if err != nil {
		return nil, err
	}
	emb := s.spec
	emb.Checkpoint = nil
	emb.Artifacts = nil
	emb.Deadline = 0
	specJSON, err := CanonicalJSON(emb)
	if err != nil {
		return nil, err
	}
	return snapshot.Encode(s.snapSystem(), st, snapshot.Meta{
		At:   int64(s.sim.Now()),
		Spec: specJSON,
	})
}

// executeSynthetic runs a declarative workload on a bare kernel and
// harvests the requested artifacts. Like every scenario, the artifacts are
// a pure function of the Spec: the task set resolves deterministically and
// everything stochastic inside the run draws from seeded streams. A
// Checkpoint splits the run in two legs at a quiescent point — capturing a
// snapshot and/or reseeding the arrival streams there — or resumes a
// previously captured snapshot.
func executeSynthetic(ctx context.Context, spec Spec, o StreamOptions) (Result, error) {
	if ck := spec.Checkpoint; ck != nil && ck.ResumeFrom != nil {
		return executeResume(ctx, spec, o)
	}
	sys := buildSynSystem(spec, o)
	defer sys.sim.Shutdown()

	wall0 := time.Now()
	progress := func() { o.Progress(sys.stats(time.Since(wall0))) }
	if o.Progress == nil {
		progress = nil
	}
	every := o.progressGrid(sys.dur)

	var runErr error
	var snap []byte
	if ck := spec.Checkpoint; ck != nil && ck.At > 0 {
		at := ck.At.Sim()
		if at >= sys.dur {
			return Result{}, fmt.Errorf("run: checkpoint.at (%v) must be before dur (%v)", ck.At, Duration(sys.dur/sysc.Ns))
		}
		runErr = sys.sim.StartContext(ctx, at)
		if runErr == nil && wants(spec, ArtifactSnapshot) {
			snap, runErr = sys.encodeSnapshot()
		}
		if runErr == nil {
			if ck.ForkSeed != nil {
				sys.inst.Reseed(*ck.ForkSeed)
			}
			runErr = driveProgress(ctx, at, sys.dur, every, sys.sim.StartContext, progress)
		}
	} else {
		runErr = driveProgress(ctx, 0, sys.dur, every, sys.sim.StartContext, progress)
	}
	wall := time.Since(wall0)

	res := sys.result(wall)
	sys.harvest(&res, &runErr, true)
	if snap != nil {
		res.Artifacts[ArtifactSnapshot] = snap
	}
	return res, runErr
}

// executeResume rebuilds the donor system from the spec embedded in the
// snapshot, replays it to the capture point, verifies the replayed state
// byte-matches the snapshot (a self-checking restore), then continues to
// the outer spec's duration with the outer spec's artifact requests. An
// optional ForkSeed reseeds the arrival streams at the capture point, so a
// resume can both continue a run exactly and fork variants from it.
func executeResume(ctx context.Context, spec Spec, o StreamOptions) (Result, error) {
	ck := spec.Checkpoint
	meta, err := snapshot.DecodeMeta(ck.ResumeFrom)
	if err != nil {
		return Result{}, err
	}
	var inner Spec
	if err := json.Unmarshal(meta.Spec, &inner); err != nil {
		return Result{}, fmt.Errorf("%w: embedded spec: %v", snapshot.ErrCorrupt, err)
	}
	if inner.Scenario != ScenarioSynthetic {
		return Result{}, fmt.Errorf("%w: snapshot from scenario %q", snapshot.ErrIncompatible, inner.Scenario)
	}
	dur := spec.Dur.Sim()
	if dur <= 0 {
		dur = 1 * sysc.Sec
	}
	at := sysc.Time(meta.At)
	if at >= dur {
		return Result{}, fmt.Errorf("run: resume snapshot taken at %v, dur (%v) must be later",
			Duration(at/sysc.Ns), Duration(dur/sysc.Ns))
	}

	// The donor spec drives construction (task set, seed, engine, tick);
	// the outer spec decides which observers to attach and how far to run.
	build := inner
	build.Dur = spec.Dur
	build.Artifacts = spec.Artifacts
	sys := buildSynSystem(build, StreamOptions{})
	defer sys.sim.Shutdown()

	wall0 := time.Now()
	progress := func() { o.Progress(sys.stats(time.Since(wall0))) }
	if o.Progress == nil {
		progress = nil
	}

	runErr := sys.sim.StartContext(ctx, at)
	if runErr == nil {
		if err := snapshot.Verify(sys.snapSystem(), ck.ResumeFrom); err != nil {
			return Result{}, err
		}
		if ck.ForkSeed != nil {
			sys.inst.Reseed(*ck.ForkSeed)
		}
		runErr = driveProgress(ctx, at, dur, o.progressGrid(dur), sys.sim.StartContext, progress)
	}
	wall := time.Since(wall0)

	res := sys.result(wall)
	sys.harvest(&res, &runErr, true)
	return res, runErr
}
