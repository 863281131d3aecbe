package chaos

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/event"
	"repro/internal/sweep"
	"repro/internal/sysc"
	"repro/internal/tkernel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes a campaign.
type Config struct {
	Seeds    int    // jobs to run (default 16)
	BaseSeed uint64 // campaign seed; job i uses sweep.Seed(BaseSeed, i)
	Workers  int    // sweep pool size (<= 0: GOMAXPROCS); never affects results

	Dur      sysc.Time // simulated time per job (default 150 ms)
	Tasks    int       // application tasks per job (default 6)
	Faults   int       // faults per schedule (default 5)
	Corrupt  bool      // include corruption faults (PoolLeak) in the draw
	Minimize bool      // ddmin failing schedules to a minimal repro

	// Synthetic, when non-nil, replaces the built-in chaos application:
	// each job generates a fresh workload.TaskSet from stream 0 of its own
	// seed and runs it under the fault schedule, with targets derived from
	// the generated objects. Tasks is ignored (the generator's Tasks field
	// governs).
	Synthetic *workload.GenSpec

	OracleInterval sysc.Time // oracle throttle (default 1 ms)
}

func (c Config) normalized() Config {
	if c.Seeds <= 0 {
		c.Seeds = 16
	}
	if c.Dur <= 0 {
		c.Dur = 150 * sysc.Ms
	}
	if c.Tasks <= 0 {
		c.Tasks = 6
	}
	if c.Faults < 0 {
		c.Faults = 0
	} else if c.Faults == 0 {
		c.Faults = 5
	}
	if c.OracleInterval <= 0 {
		c.OracleInterval = 1 * sysc.Ms
	}
	return c
}

// Verdict is one job's outcome. Every field derives from (BaseSeed, Index)
// alone — nothing here depends on worker count or wall-clock — so campaign
// summaries are byte-identical however the pool is sized.
type Verdict struct {
	Index int
	Seed  uint64
	Pass  bool

	Schedule    Schedule
	FaultsFired int
	Checks      int
	Violations  []Violation

	// Deterministic activity digest.
	Ticks       uint64
	CtxSwitches uint64
	Preemptions uint64
	Interrupts  uint64
	Cycles      int

	// Failure artifacts.
	Minimized    Schedule // minimal failing sub-schedule (when minimization ran)
	MinimizeRuns int
	Repro        string // fault log + violations + fault-annotated Gantt window
}

// Report is a full campaign result.
type Report struct {
	Cfg      Config
	Verdicts []Verdict
}

// Failures returns the indexes of failing jobs, in order.
func (r Report) Failures() []int {
	var out []int
	for _, v := range r.Verdicts {
		if !v.Pass {
			out = append(out, v.Index)
		}
	}
	return out
}

// Summary renders the campaign verdict table. The text is a pure function
// of the verdicts, which are pure functions of (BaseSeed, job index): any
// worker count yields the identical byte sequence.
func (r Report) Summary() string {
	var b strings.Builder
	c := r.Cfg
	fmt.Fprintf(&b, "chaos campaign: seeds=%d base=0x%016x dur=%v tasks=%d faults=%d corrupt=%v\n",
		c.Seeds, c.BaseSeed, c.Dur, c.Tasks, c.Faults, c.Corrupt)
	if c.Synthetic != nil {
		gs := c.Synthetic.Normalized()
		fmt.Fprintf(&b, "synthetic workload: tasks=%d util=%.2f periods=%v..%v sems=%d mutexes=%d mbfs=%d flags=%d irqs=%d\n",
			gs.Tasks, gs.Util, gs.PeriodMin.Std(), gs.PeriodMax.Std(),
			gs.Sems, gs.Mutexes, gs.Mbfs, gs.Flags, gs.Interrupts)
	}
	for _, v := range r.Verdicts {
		status := "PASS"
		if !v.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "job %4d seed=0x%016x %s fired=%d/%d checks=%d ticks=%d ctx=%d pre=%d irq=%d cycles=%d\n",
			v.Index, v.Seed, status, v.FaultsFired, len(v.Schedule), v.Checks,
			v.Ticks, v.CtxSwitches, v.Preemptions, v.Interrupts, v.Cycles)
		for _, viol := range v.Violations {
			fmt.Fprintf(&b, "         %s\n", viol)
		}
		if v.Minimized != nil {
			fmt.Fprintf(&b, "         minimized to %d fault(s) in %d runs:\n",
				len(v.Minimized), v.MinimizeRuns)
			for _, f := range v.Minimized {
				fmt.Fprintf(&b, "           %s\n", f)
			}
		}
	}
	fmt.Fprintf(&b, "failures: %d/%d\n", len(r.Failures()), len(r.Verdicts))
	return b.String()
}

// Run executes the campaign across the sweep pool and returns all verdicts
// in job order.
func Run(cfg Config) Report {
	r, _ := RunContext(context.Background(), cfg)
	return r
}

// RunContext runs the campaign under a context: once ctx is done no new job
// starts and in-flight simulations stop at their next quiescent point. The
// report then holds the verdicts of the jobs that completed (original
// indices kept) alongside the context's cause — the partial-result
// contract shared by server job cancellation and the CLI -timeout flag.
func RunContext(ctx context.Context, cfg Config) (Report, error) {
	cfg = cfg.normalized()
	jobs := make([]int, cfg.Seeds)
	completed := make([]bool, cfg.Seeds)
	runner := sweep.Runner{Workers: cfg.Workers, BaseSeed: cfg.BaseSeed}
	verdicts, err := sweep.RunContext(ctx, runner, jobs, func(job sweep.Job, _ int) Verdict {
		v, ok := runSeed(ctx, cfg, job.Index, job.Seed)
		completed[job.Index] = ok
		return v
	})
	if err == nil {
		return Report{Cfg: cfg, Verdicts: verdicts}, nil
	}
	kept := make([]Verdict, 0, len(verdicts))
	for i, v := range verdicts {
		if completed[i] {
			kept = append(kept, v)
		}
	}
	return Report{Cfg: cfg, Verdicts: kept}, err
}

// RunJob replays a single campaign job from (cfg.BaseSeed, index) — the
// whole failure-replay contract in one call.
func RunJob(cfg Config, index int) Verdict {
	v, _ := RunJobContext(context.Background(), cfg, index)
	return v
}

// RunJobContext is RunJob under a context (see RunContext). The boolean
// reports whether the job ran to completion.
func RunJobContext(ctx context.Context, cfg Config, index int) (Verdict, bool) {
	cfg = cfg.normalized()
	return runSeed(ctx, cfg, index, sweep.Seed(cfg.BaseSeed, index))
}

// RunJobTrace replays a single campaign job with a streaming Perfetto
// exporter subscribed to the kernel's event bus, writing the trace-event
// JSON to w. Minimization is skipped: the trace documents the full original
// schedule. It returns the verdict and any trace-write error.
func RunJobTrace(cfg Config, index int, w io.Writer) (Verdict, error) {
	return RunJobTraceContext(context.Background(), cfg, index, w)
}

// RunJobTraceContext is RunJobTrace under a context (see RunContext).
func RunJobTraceContext(ctx context.Context, cfg Config, index int, w io.Writer) (Verdict, error) {
	cfg = cfg.normalized()
	seed := sweep.Seed(cfg.BaseSeed, index)
	sched := drawSchedule(cfg, seed)

	v, err := execute(ctx, cfg, seed, sched, w)
	v.Index = index
	v.Seed = seed
	return v, err
}

// jobTargets returns the fault targets of one job: the fixed object layout
// of the built-in application, or the objects the job's generated TaskSet
// will create (workload.Build allocates IDs in declaration order, so the
// targets are known before anything is built).
func jobTargets(cfg Config, seed uint64) Targets {
	if cfg.Synthetic == nil {
		return Targets{IntNos: []int{1, 2}, Mpf: 1, Mbf: 1}
	}
	ts := synthTaskSet(cfg, seed)
	t := Targets{}
	for _, irq := range ts.Interrupts {
		t.IntNos = append(t.IntNos, irq.IntNo)
	}
	if len(ts.Mbfs) > 0 {
		t.Mbf = 1
	}
	return t
}

// synthTaskSet draws the job's synthetic task set: stream 0 of the job
// seed, the same stream the built-in application draws from.
func synthTaskSet(cfg Config, seed uint64) *workload.TaskSet {
	return workload.Generate(sweep.NewRNG(sweep.Seed(seed, 0)), *cfg.Synthetic)
}

// drawSchedule draws the job's fault schedule. Stream 1 of the job seed
// drives the schedule; stream 0 drives the application (built-in steps or
// generated task set). Separate streams keep the two draws independent of
// each other's draw counts.
func drawSchedule(cfg Config, seed uint64) Schedule {
	rng := sweep.NewRNG(sweep.Seed(seed, 1))
	return RandomSchedule(rng, jobTargets(cfg, seed), cfg.Faults, cfg.Dur, cfg.Corrupt)
}

// runSeed draws the job's fault schedule, executes it, and minimizes on
// failure. The boolean is false when ctx stopped the run early — the
// verdict is then partial and must not count as a campaign result.
func runSeed(ctx context.Context, cfg Config, index int, seed uint64) (Verdict, bool) {
	sched := drawSchedule(cfg, seed)

	v, err := execute(ctx, cfg, seed, sched, nil)
	v.Index = index
	v.Seed = seed
	if err != nil && ctx.Err() != nil {
		return v, false
	}

	if !v.Pass && cfg.Minimize && len(sched) > 1 {
		// Warm path: bisect from an in-memory checkpoint of the fault-free
		// prefix when the configuration supports it; any warm failure drops
		// the trial — and all later ones — back to a cold rebuild.
		wm := newWarmMinimizer(ctx, cfg, seed, sched)
		min, runs := ddmin(sched, func(sub Schedule) bool {
			if wm != nil {
				if pass, err := wm.trial(ctx, sub); err == nil {
					return !pass
				}
				wm.close()
				wm = nil
			}
			sv, _ := execute(ctx, cfg, seed, sub, nil)
			return !sv.Pass
		})
		if wm != nil {
			wm.close()
		}
		v.MinimizeRuns = runs
		if len(min) < len(sched) {
			v.Minimized = min
			// Re-derive the repro from the minimal schedule so the report
			// shows only the faults that matter.
			rv, _ := execute(ctx, cfg, seed, min, nil)
			v.Repro = rv.Repro
		}
		if ctx.Err() != nil {
			return v, false
		}
	}
	return v, true
}

// execute runs one simulation of seed's application under sched and renders
// failure artifacts. A non-nil traceW attaches a streaming Perfetto exporter
// for the run; its write/encode error — or the context's cause when ctx
// stopped the run early — is returned.
func execute(ctx context.Context, cfg Config, seed uint64, sched Schedule, traceW io.Writer) (Verdict, error) {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()

	scfg := SystemConfig{Tasks: cfg.Tasks, Costs: tkernel.DefaultCosts(), Schedule: sched}
	var pf *trace.Perfetto
	if traceW != nil {
		scfg.Bus = event.NewBus()
		pf = trace.AttachPerfetto(scfg.Bus, traceW)
	}
	var sys *System
	if cfg.Synthetic != nil {
		sys = BuildSyntheticSystem(sim, seed, scfg, synthTaskSet(cfg, seed))
	} else {
		sys = BuildSystem(sim, seed, scfg)
	}
	inj := sys.Inj
	orc := Attach(sys.K, sys.Gantt, cfg.OracleInterval)

	var cancelErr error
	if err := sim.StartContext(ctx, cfg.Dur); err != nil {
		if ctx.Err() != nil {
			cancelErr = err
		} else {
			orc.fail(sim.Now(), "simulator", "%v", err)
		}
	}
	orc.Final(sim.Now())

	v := Verdict{
		Pass:        orc.Passed(),
		Schedule:    sched,
		FaultsFired: len(inj.Fired()),
		Checks:      orc.Checks(),
		Violations:  orc.Violations,
		Ticks:       sys.K.Ticks(),
		CtxSwitches: sys.K.API().ContextSwitches(),
		Preemptions: sys.K.API().Preemptions(),
		Interrupts:  sys.K.API().Interrupts(),
		Cycles:      sys.Cycles(),
	}
	if !v.Pass {
		v.Repro = renderRepro(sys, inj, orc)
	}
	if pf != nil {
		if err := pf.Close(); err != nil && cancelErr == nil {
			cancelErr = err
		}
	}
	return v, cancelErr
}

// renderRepro builds the failure report: the injected-fault log, every
// violation, and a fault-annotated Gantt window around the first violation.
func renderRepro(sys *System, inj *Injector, orc *Oracles) string {
	var b strings.Builder
	b.WriteString("fault schedule:\n")
	for _, f := range inj.Fired() {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	b.WriteString("violations:\n")
	for _, v := range orc.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	first := orc.Violations[0].At
	from := first - 10*sysc.Ms
	if from < 0 {
		from = 0
	}
	to := first + 2*sysc.Ms
	fmt.Fprintf(&b, "trace window around first violation (%v):\n", first)
	sys.Gantt.Render(&b, from, to, 100)
	for _, f := range inj.Fired() {
		if f.At >= from && f.At < to {
			fmt.Fprintf(&b, "  fault @ %v: %s\n", f.At, f.F)
		}
	}
	return b.String()
}
