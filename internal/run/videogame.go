package run

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/sysc"
	"repro/internal/tkds"
	"repro/internal/trace"
)

// ganttLimit bounds the recorded trace segments, matching the historical
// rtkspec cap.
const ganttLimit = 500000

// ganttWindow is the rendered window of ArtifactGantt: the first 100 ms,
// the paper's Figure 6 view.
const ganttWindow = 100 * sysc.Ms

// executeVideogame runs the paper's case study (Section 5.2) and harvests
// the requested artifacts. Everything written into an artifact derives
// from simulated state only. Artifacts with a sink in o stream out
// incrementally and are omitted from the returned map; the bytes either
// way are identical because the same exporter drives both paths.
func executeVideogame(ctx context.Context, spec Spec, o StreamOptions) (Result, error) {
	dur := spec.Dur.Sim()
	if dur <= 0 {
		dur = 1 * sysc.Sec
	}

	bus := event.NewBus()
	traceSink := o.sink(ArtifactTrace)
	var pf *trace.Perfetto
	if wants(spec, ArtifactTrace) {
		pf = trace.AttachPerfetto(bus, traceSink)
	}
	var coll *metrics.Collector
	if wants(spec, ArtifactMetrics) {
		coll = metrics.Attach(bus)
	}
	var g *trace.Gantt
	if wants(spec, ArtifactGantt) {
		g = trace.NewGantt()
		g.SetLimit(ganttLimit)
	}
	var vcd *trace.VCD
	if wants(spec, ArtifactVCD) {
		vcd = trace.NewVCD()
	}

	cfg := app.DefaultConfig()
	cfg.GUI = boolOr(spec.GUI, true)
	if spec.Frame != 0 {
		cfg.FramePeriod = spec.Frame.Sim()
	}
	cfg.Tick = spec.Tick.Sim()
	cfg.DisableTickless = !boolOr(spec.Tickless, true)
	cfg.IdleSleep = spec.IdleSleep.Sim()
	cfg.Seed = spec.Seed
	cfg.Bus = bus
	cfg.Gantt = g
	cfg.VCD = vcd
	a := app.Build(cfg)
	defer a.Shutdown()

	wall0 := time.Now()
	statsNow := func() Stats {
		simNs := time.Duration(a.Sim.Now() / sysc.Ns)
		wall := time.Since(wall0)
		st := Stats{
			Scenario:    ScenarioVideogame,
			SimTime:     Duration(simNs),
			Wall:        Duration(wall),
			Ticks:       a.K.Ticks(),
			CtxSwitches: a.K.API().ContextSwitches(),
			Preemptions: a.K.API().Preemptions(),
			Interrupts:  a.K.API().Interrupts(),
			Frames:      a.Frames(),
			Score:       a.Score(),
			Bonus:       a.Bonus(),
		}
		if wall > 0 {
			st.SimPerWall = simNs.Seconds() / wall.Seconds()
		}
		return st
	}
	progress := func() { o.Progress(statsNow()) }
	if o.Progress == nil {
		progress = nil
	}
	every := o.progressGrid(dur)

	var runErr error
	if spec.Step {
		// Step mode: advance in steps of the system tick rather than
		// animate mode, as the paper prescribes for trace viewing.
		tick := a.K.Tick()
		next := every
		for t := tick; t <= dur; t += tick {
			if runErr = a.RunContext(ctx, t); runErr != nil {
				break
			}
			if progress != nil && t >= next && t < dur {
				progress()
				next += every
			}
		}
	} else if ck := spec.Checkpoint; ck != nil && ck.At > 0 && ck.At.Sim() < dur {
		// Two-leg checkpoint run: pause at a quiescent point and continue.
		// The byte-equality contract demands this is unobservable — the
		// property tests compare its artifacts against the one-leg run.
		if runErr = a.RunContext(ctx, ck.At.Sim()); runErr == nil {
			runErr = driveProgress(ctx, ck.At.Sim(), dur, every, a.RunContext, progress)
		}
	} else {
		runErr = driveProgress(ctx, 0, dur, every, a.RunContext, progress)
	}

	res := Result{Stats: statsNow(), Artifacts: map[string][]byte{}}

	if pf != nil {
		if err := pf.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("run: trace: %w", err)
		}
		res.Stats.TraceEvents = pf.Events()
		if traceSink == nil {
			res.Artifacts[ArtifactTrace] = pf.Bytes()
		}
	}
	if coll != nil {
		if w := o.sink(ArtifactMetrics); w != nil {
			if err := coll.WriteJSON(w); err != nil && runErr == nil {
				runErr = fmt.Errorf("run: metrics: %w", err)
			}
		} else {
			b, err := coll.JSON()
			if err != nil && runErr == nil {
				runErr = fmt.Errorf("run: metrics: %w", err)
			}
			res.Artifacts[ArtifactMetrics] = b
		}
	}
	if g != nil {
		var buf bytes.Buffer
		g.Render(&buf, 0, ganttWindow, 100)
		res.Artifacts[ArtifactGantt] = exact(&buf)
	}
	if vcd != nil {
		var buf bytes.Buffer
		vcd.Render(&buf)
		res.Stats.VCDChanges = vcd.Len()
		res.Artifacts[ArtifactVCD] = exact(&buf)
	}
	if wants(spec, ArtifactDS) {
		var buf bytes.Buffer
		tkds.New(a.K).Listing(&buf)
		res.Artifacts[ArtifactDS] = exact(&buf)
	}
	if wants(spec, ArtifactConsole) {
		res.Artifacts[ArtifactConsole] = renderConsole(a)
	}
	return res, runErr
}

// renderConsole builds the deterministic end-of-run console block: the
// game/kernel digest plus the rendered LCD, SSD and battery widgets.
func renderConsole(a *app.App) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "game: frames=%d score=%d bonus=%d  kernel: ticks=%d ctxsw=%d preempt=%d irq=%d\n\n",
		a.Frames(), a.Score(), a.Bonus(), a.K.Ticks(),
		a.K.API().ContextSwitches(), a.K.API().Preemptions(), a.K.API().Interrupts())
	fmt.Fprintln(&b, a.LCDW.RenderText())
	fmt.Fprintln(&b, "SSD:", a.SSDW.RenderText())
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, a.Battery.RenderText())
	return exact(&b)
}
