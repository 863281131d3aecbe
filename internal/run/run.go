// Package run is the unified simulation façade: one pure-data Spec, one
// Execute call. Every entry point — cmd/rtkspec, cmd/chaos,
// cmd/experiments and the internal/server job service — builds its runs
// through Execute, so a run submitted over HTTP is constructed by exactly
// the code path a CLI run uses.
//
// Determinism is the contract: Execute is a pure function of its Spec (up
// to the wall-clock fields of Stats, which never feed an artifact), so the
// same Spec produces byte-identical artifacts whether it arrives via flag
// parsing or via JSON over HTTP.
package run

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/run/opts"
	"repro/internal/workload"
)

// CommonOptions re-exports the construction knob set shared by
// tkernel.Config, rtk.Config and app.Config (see internal/run/opts; the
// alias exists so kernel layers below this package can embed the same
// struct without an import cycle).
type CommonOptions = opts.CommonOptions

// Scenario names a workload Execute knows how to build.
type Scenario string

// Scenarios.
const (
	// ScenarioVideogame is the paper's case study: RTK-Spec TRON + i8051
	// BFM + GUI widgets + the video game (the default).
	ScenarioVideogame Scenario = "videogame"
	// ScenarioChaos runs a deterministic fault-injection campaign (or a
	// single-job replay) with live invariant oracles.
	ScenarioChaos Scenario = "chaos"
	// ScenarioExperiments regenerates the paper's tables and figures.
	ScenarioExperiments Scenario = "experiments"
	// ScenarioSynthetic runs a declarative workload.TaskSet — hand-written
	// or drawn by the seeded generator — on a bare kernel.
	ScenarioSynthetic Scenario = "synthetic"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("250ms") and unmarshals from either a string or integer nanoseconds, so
// hand-written JSON specs stay legible (defined in internal/run/opts so
// spec-bearing packages below the façade share the wire representation).
type Duration = opts.Duration

// Artifact names a deterministic output a Spec can request. Unknown names
// are rejected by Execute, and each scenario documents which names it can
// produce.
const (
	// ArtifactTrace is the streaming Perfetto/Chrome trace-event JSON
	// (videogame; chaos single-job replay). Load at ui.perfetto.dev.
	ArtifactTrace = "trace.json"
	// ArtifactMetrics is the per-task scheduling-metrics JSON report
	// (videogame; experiments with the fig7 section).
	ArtifactMetrics = "metrics.json"
	// ArtifactGantt is the rendered execution time/energy trace of the
	// first 100 ms (videogame).
	ArtifactGantt = "gantt.txt"
	// ArtifactVCD is the BFM signal waveform in VCD format (videogame;
	// experiments with the fig4 section).
	ArtifactVCD = "wave.vcd"
	// ArtifactDS is the T-Kernel/DS debugger-support listing rendered at
	// the end of the run (videogame).
	ArtifactDS = "ds.txt"
	// ArtifactConsole is the deterministic end-of-run console block: game
	// digest plus rendered LCD, SSD and battery widgets (videogame).
	ArtifactConsole = "console.txt"
	// ArtifactSummary is the campaign verdict table (chaos).
	ArtifactSummary = "summary.txt"
	// ArtifactRepro holds the replayable failure repros of every failing
	// job (chaos; empty campaign failures produce no entry).
	ArtifactRepro = "repro.txt"
	// ArtifactReport is the rendered tables/figures text (experiments).
	ArtifactReport = "report.txt"
	// ArtifactTaskSet is the fully resolved workload.TaskSet that ran —
	// for generated sets, the concrete draw — as indented JSON (synthetic).
	ArtifactTaskSet = "taskset.json"
	// ArtifactSnapshot is the versioned binary kernel snapshot captured at
	// Checkpoint.At (synthetic only). Feed it back via
	// Checkpoint.ResumeFrom to continue the run without re-simulating the
	// prefix.
	ArtifactSnapshot = "snapshot.bin"
)

// Spec is a complete, pure-data description of one run: scenario, seed,
// duration, model knobs, fault plan and the artifacts to produce. It is
// the JSON wire format of the job server and the target the CLIs lower
// their flags into.
type Spec struct {
	// Scenario selects the workload (default ScenarioVideogame).
	Scenario Scenario `json:"scenario,omitempty"`
	// Dur is the simulated duration: of the whole run for videogame
	// (default 1s), of each job for chaos (default 150ms). Ignored by
	// experiments (see ExperimentsSpec.SimTime).
	Dur Duration `json:"dur,omitempty"`
	// Seed drives every random draw of the run (synthetic user input,
	// chaos schedules, sweep points). 0 is the fixed legacy pattern.
	Seed uint64 `json:"seed,omitempty"`
	// Engine is accepted and ignored: the retired T-THREAD engine knob.
	// "", "goroutine" and "continuation" validate (and hash alike, see
	// Canonicalize) so older clients keep working; any other value is
	// rejected.
	Engine string `json:"engine,omitempty"`
	// Deadline caps the run's wall-clock time: when it expires the
	// simulation stops at the next quiescent point and Execute returns
	// partial results with the context error. 0 means no deadline (the
	// server may still impose its own).
	Deadline Duration `json:"deadline,omitempty"`

	// GUI models the widget layer's host overhead (videogame; default
	// true).
	GUI *bool `json:"gui,omitempty"`
	// Frame is the LCD frame period — the widget-driving BFM access rate
	// (videogame; default 10ms).
	Frame Duration `json:"frame,omitempty"`
	// Tick overrides the BFM real-time-clock resolution driving the kernel
	// tick (videogame; default 1ms).
	Tick Duration `json:"tick,omitempty"`
	// Tickless enables the clock fast-forward across provably idle ticks
	// (videogame; default true).
	Tickless *bool `json:"tickless,omitempty"`
	// Step advances tick by tick instead of animate mode, as the paper
	// prescribes for trace viewing (videogame).
	Step bool `json:"step,omitempty"`
	// IdleSleep makes the idle task block in tk_dly_tsk for this long per
	// loop instead of busy work (videogame; 0 keeps the busy idle loop).
	IdleSleep Duration `json:"idle_sleep,omitempty"`

	// Synthetic selects the declarative workload (synthetic scenario
	// only): an inline TaskSet or generator parameters.
	Synthetic *SyntheticSpec `json:"synthetic,omitempty"`
	// Chaos parameterizes the fault plan (chaos scenario only).
	Chaos *ChaosSpec `json:"chaos,omitempty"`
	// Experiments selects the tables/figures to regenerate (experiments
	// scenario only).
	Experiments *ExperimentsSpec `json:"experiments,omitempty"`

	// Checkpoint requests snapshot/restore behavior: capture the run's
	// state at a quiescent point, fork a variant there, or resume from a
	// previously captured snapshot (videogame and synthetic scenarios; see
	// CheckpointSpec for which fields each supports).
	Checkpoint *CheckpointSpec `json:"checkpoint,omitempty"`

	// Stream asks the job server to emit this run's streamable artifacts
	// (trace, metrics) incrementally — chunked artifact downloads while
	// the job runs — instead of buffering them whole. It never changes
	// artifact bytes (Canonicalize erases it, so a streamed and a buffered
	// submission share one content hash and one cache entry), and the run
	// façade itself ignores it: transport is the caller's choice, made by
	// passing sinks to ExecuteStream. Exclusive with Checkpoint.
	Stream bool `json:"stream,omitempty"`

	// Artifacts lists the outputs to produce (Artifact* names). Empty
	// means stats only.
	Artifacts []string `json:"artifacts,omitempty"`
}

// CheckpointSpec parameterizes snapshot/restore. The byte-equality
// contract: a run with At set produces exactly the artifacts of the same
// run without it (the simulation pauses at a quiescent point and
// continues — nothing observable changes), and a run resumed from the
// captured snapshot produces exactly the suffix the donor run would have.
type CheckpointSpec struct {
	// At pauses the simulation at this simulated time (a quiescent point)
	// and, for the synthetic scenario with ArtifactSnapshot requested,
	// captures the binary snapshot there. Must be less than Dur.
	At Duration `json:"at,omitempty"`
	// ForkSeed, when non-nil, reseeds the workload's arrival streams at
	// the checkpoint — the explicit variant-fork knob of a warm-start
	// sweep. Synthetic scenario only.
	ForkSeed *uint64 `json:"fork_seed,omitempty"`
	// ResumeFrom is a snapshot previously captured via At +
	// ArtifactSnapshot. The run rebuilds the donor's system from the
	// spec embedded in the snapshot, restores, verifies, and continues to
	// Dur. Exclusive with At. Synthetic scenario only. (JSON: base64, per
	// encoding/json []byte convention.)
	ResumeFrom []byte `json:"resume_from,omitempty"`
}

// SyntheticSpec selects the synthetic scenario's workload: exactly one of
// TaskSet (an inline declarative scenario) or Gen (generator parameters;
// the TaskSet is drawn from stream 2 of Spec.Seed, so a generated run is
// still a pure function of the Spec).
type SyntheticSpec struct {
	TaskSet *workload.TaskSet `json:"taskset,omitempty"`
	Gen     *workload.GenSpec `json:"gen,omitempty"`
}

// ChaosSpec is the fault plan of a chaos run.
type ChaosSpec struct {
	// Seeds is the number of campaign jobs (default 16).
	Seeds int `json:"seeds,omitempty"`
	// Job, when non-nil, replays that single job index instead of the
	// campaign (the failure-replay contract; required for ArtifactTrace).
	Job *int `json:"job,omitempty"`
	// Workers sizes the sweep pool (0 = GOMAXPROCS; never affects
	// results).
	Workers int `json:"workers,omitempty"`
	// Tasks is the application task count per job (default 6).
	Tasks int `json:"tasks,omitempty"`
	// Faults is the fault count per schedule (default 5).
	Faults int `json:"faults,omitempty"`
	// Corrupt includes bookkeeping-corruption faults the oracles must
	// catch (the oracle self-test).
	Corrupt bool `json:"corrupt,omitempty"`
	// Minimize ddmins failing schedules to a minimal repro.
	Minimize bool `json:"minimize,omitempty"`
	// Synthetic, when non-nil, makes every job generate a fresh synthetic
	// task set from its own seed (replacing the built-in chaos application)
	// with fault targets derived from the generated objects.
	Synthetic *workload.GenSpec `json:"synthetic,omitempty"`
}

// ExperimentsSpec selects paper tables and figures.
type ExperimentsSpec struct {
	// Sections lists the experiments to run in order: table1, table2,
	// fig4, fig6, fig7, fig8, a1, a2, a3, speed — or the single section
	// "all".
	Sections []string `json:"sections"`
	// SimTime is the simulated time per Table 2 / speed configuration
	// (default 1s).
	SimTime Duration `json:"simtime,omitempty"`
	// Workers sizes the sweep pool for parallel sections (default 1, the
	// sequential reference; 0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// Stats is the deterministic digest of a run plus its (non-deterministic)
// wall-clock cost. Wall and SimPerWall are the only fields that vary
// between identical runs, and no artifact ever includes them.
type Stats struct {
	Scenario Scenario `json:"scenario"`
	// SimTime is the simulated time covered (summed across chaos jobs).
	SimTime Duration `json:"sim_time"`
	// Wall is the run's wall-clock cost. Non-deterministic.
	Wall Duration `json:"wall"`
	// SimPerWall is the paper's S/R speed measure. Non-deterministic.
	SimPerWall float64 `json:"sim_per_wall"`

	Ticks       uint64 `json:"ticks,omitempty"`
	CtxSwitches uint64 `json:"ctx_switches,omitempty"`
	Preemptions uint64 `json:"preemptions,omitempty"`
	Interrupts  uint64 `json:"interrupts,omitempty"`

	// Activations counts completed task-body activations (synthetic).
	Activations uint64 `json:"activations,omitempty"`

	// Videogame digest.
	Frames uint64 `json:"frames,omitempty"`
	Score  int    `json:"score,omitempty"`
	Bonus  int    `json:"bonus,omitempty"`

	// Chaos digest.
	Jobs     int `json:"jobs,omitempty"`
	Failures int `json:"failures,omitempty"`

	// TraceEvents counts emitted Perfetto events when ArtifactTrace was
	// produced.
	TraceEvents int `json:"trace_events,omitempty"`
	// VCDChanges counts recorded waveform value changes when ArtifactVCD
	// was produced.
	VCDChanges int `json:"vcd_changes,omitempty"`
}

// Result is everything a run produced: the stats digest and the requested
// artifacts, keyed by Artifact* name.
type Result struct {
	Stats     Stats
	Artifacts map[string][]byte
}

// Execute builds and runs the simulation described by spec, observing ctx
// (and spec.Deadline) at every quiescent point. On cancellation it returns
// the partial result alongside the context's cause; on success the result
// carries every requested artifact. Execute buffers everything;
// ExecuteStream is the incremental-sink variant.
func Execute(ctx context.Context, spec Spec) (Result, error) {
	return ExecuteStream(ctx, spec, StreamOptions{})
}

// scenarioArtifacts maps each scenario to the artifact names it can
// produce.
var scenarioArtifacts = map[Scenario]map[string]bool{
	ScenarioVideogame: {
		ArtifactTrace: true, ArtifactMetrics: true, ArtifactGantt: true,
		ArtifactVCD: true, ArtifactDS: true, ArtifactConsole: true,
	},
	ScenarioChaos: {
		ArtifactSummary: true, ArtifactRepro: true, ArtifactTrace: true,
	},
	ScenarioExperiments: {
		ArtifactReport: true, ArtifactVCD: true, ArtifactMetrics: true,
	},
	ScenarioSynthetic: {
		ArtifactTrace: true, ArtifactMetrics: true, ArtifactGantt: true,
		ArtifactTaskSet: true, ArtifactSnapshot: true,
	},
}

// Validate checks that spec is executable — known scenario, artifacts the
// scenario can produce, coherent scenario parameters — without running
// anything. An empty Scenario validates as the default. The job server
// calls this at submission so malformed specs fail with 400 instead of
// occupying a worker.
func Validate(spec Spec) error {
	if spec.Scenario == "" {
		spec.Scenario = ScenarioVideogame
	}
	known := scenarioArtifacts[spec.Scenario]
	if known == nil {
		return fmt.Errorf("run: unknown scenario %q", spec.Scenario)
	}
	for _, a := range spec.Artifacts {
		if !known[a] {
			return fmt.Errorf("run: scenario %q cannot produce artifact %q", spec.Scenario, a)
		}
	}
	switch spec.Engine {
	case "", "goroutine", "continuation": // spellings of the retired knob
	default:
		return fmt.Errorf("run: unknown engine %q (the field is ignored; omit it)", spec.Engine)
	}
	if spec.Scenario == ScenarioChaos && wants(spec, ArtifactTrace) &&
		(spec.Chaos == nil || spec.Chaos.Job == nil) {
		return fmt.Errorf("run: chaos artifact %q requires a single-job replay (chaos.job)", ArtifactTrace)
	}
	if spec.Scenario == ScenarioExperiments && spec.Experiments != nil {
		if _, err := expandSections(spec.Experiments.Sections); err != nil {
			return err
		}
	}
	if spec.Synthetic != nil && spec.Scenario != ScenarioSynthetic {
		return fmt.Errorf("run: synthetic workload requires scenario %q, got %q", ScenarioSynthetic, spec.Scenario)
	}
	if spec.Scenario == ScenarioSynthetic {
		syn := spec.Synthetic
		switch {
		case syn == nil && spec.Checkpoint != nil && spec.Checkpoint.ResumeFrom != nil:
			// A resumed run takes its workload from the spec embedded in the
			// snapshot; an inline synthetic field is unnecessary.
		case syn == nil:
			return fmt.Errorf("run: scenario %q requires the synthetic field (taskset or gen)", ScenarioSynthetic)
		case syn.TaskSet != nil && syn.Gen != nil:
			return fmt.Errorf("run: synthetic wants exactly one of taskset and gen, got both")
		case syn.TaskSet != nil:
			if err := syn.TaskSet.Validate(); err != nil {
				return err
			}
		case syn.Gen != nil:
			if err := syn.Gen.Validate(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("run: synthetic wants exactly one of taskset and gen, got neither")
		}
	}
	if spec.Chaos != nil && spec.Chaos.Synthetic != nil {
		if err := spec.Chaos.Synthetic.Validate(); err != nil {
			return err
		}
	}
	if ck := spec.Checkpoint; ck != nil {
		if err := validateCheckpoint(spec, ck); err != nil {
			return err
		}
	} else if wants(spec, ArtifactSnapshot) {
		return fmt.Errorf("run: artifact %q requires checkpoint.at", ArtifactSnapshot)
	}
	if spec.Stream && spec.Checkpoint != nil {
		// Snapshot capture folds the trace buffer into the kernel state; a
		// trace that left through a sink cannot be captured or verified.
		return fmt.Errorf("run: stream and checkpoint are exclusive")
	}
	return nil
}

// validateCheckpoint checks the checkpoint plan against the scenario.
func validateCheckpoint(spec Spec, ck *CheckpointSpec) error {
	switch spec.Scenario {
	case ScenarioSynthetic:
	case ScenarioVideogame:
		// The videogame app roots state in goroutine closures, so only the
		// pause-and-continue form (At) is supported — no capture, fork or
		// resume.
		if ck.ForkSeed != nil || ck.ResumeFrom != nil {
			return fmt.Errorf("run: scenario %q supports only checkpoint.at (fork/resume need scenario %q)",
				spec.Scenario, ScenarioSynthetic)
		}
	default:
		return fmt.Errorf("run: scenario %q does not support checkpoints", spec.Scenario)
	}
	if ck.ResumeFrom != nil {
		if ck.At != 0 {
			return fmt.Errorf("run: checkpoint.at and checkpoint.resume_from are exclusive")
		}
	} else if ck.At <= 0 {
		return fmt.Errorf("run: checkpoint requires at > 0 or resume_from")
	}
	if ck.At != 0 && spec.Dur != 0 && ck.At >= spec.Dur {
		return fmt.Errorf("run: checkpoint.at (%v) must be before dur (%v)", ck.At, spec.Dur)
	}
	if spec.Step {
		return fmt.Errorf("run: checkpoint and step mode are exclusive")
	}
	if wants(spec, ArtifactSnapshot) && ck.ResumeFrom != nil {
		return fmt.Errorf("run: a resumed run cannot produce %q (request it on the capturing run)", ArtifactSnapshot)
	}
	return nil
}

// exact returns the bytes of a rendered artifact in a slice of their own
// size class: a result cache accounts artifacts by length, so capacity a
// buffer grew past it would be memory the cache never sees.
func exact(b *bytes.Buffer) []byte { return bytes.Clone(b.Bytes()) }

// wants reports whether spec requests the named artifact.
func wants(spec Spec, name string) bool {
	for _, a := range spec.Artifacts {
		if a == name {
			return true
		}
	}
	return false
}

// boolOr reads an optional boolean knob.
func boolOr(p *bool, def bool) bool {
	if p == nil {
		return def
	}
	return *p
}
