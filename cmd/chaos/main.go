// Command chaos runs deterministic fault-injection campaigns against the
// RTK-Spec TRON kernel model with live invariant oracles. It is a thin flag
// shim over the unified run façade — the same run.Spec submitted to
// rtkserve produces byte-identical artifacts.
//
//	chaos -seeds 1000 -workers 8          # fan a campaign across 8 workers
//	chaos -seeds 100 -corrupt -minimize   # draw corruption faults, minimize failures
//	chaos -seed 42 -job 17 -v             # replay one job verbosely
//	chaos -seed 42 -job 17 -trace t.json  # replay with a Perfetto trace
//	chaos -seeds 1000 -timeout 30s        # wall-clock cap; partial summary on expiry
//	chaos -spec run.json                  # load a full run.Spec from disk
//	chaos -seeds 50 -gen "tasks=8,irqs=2" # fresh generated task set per job
//
// With -spec, the file provides every field and any other flag given
// explicitly on the command line overrides the corresponding spec field
// (flags win over the file; unset flags leave the file's values alone).
// With -gen, each campaign job generates a fresh synthetic task set from
// its own seed instead of running the built-in chaos application.
//
// Every verdict derives from (base seed, job index) alone: the summary is
// byte-identical for any -workers value, and a failing job replays exactly
// with -job. Behavior-level faults (interrupt jitter/bursts/drops, execution
// -time inflation, delayed ticks, pool exhaustion, buffer flooding) must all
// pass on a correct kernel; -corrupt adds bookkeeping-corruption faults that
// the oracles must catch — the self-test proving the oracle layer works.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/run"
	"repro/internal/workload"
)

func main() {
	seeds := flag.Int("seeds", 16, "campaign jobs to run")
	seed := flag.Uint64("seed", 0, "campaign base seed")
	workers := flag.Int("workers", 0, "sweep workers (0 = GOMAXPROCS; never affects results)")
	dur := flag.Duration("dur", 150*time.Millisecond, "simulated time per job")
	tasks := flag.Int("tasks", 6, "application tasks per job")
	faults := flag.Int("faults", 5, "faults per schedule")
	corrupt := flag.Bool("corrupt", false, "include corruption faults (pool leak) the oracles must catch")
	minimize := flag.Bool("minimize", false, "ddmin failing schedules to a minimal repro")
	job := flag.Int("job", -1, "replay a single job index instead of the campaign")
	traceOut := flag.String("trace", "", "with -job: stream a Perfetto trace of the replay (load at ui.perfetto.dev)")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline; on expiry completed verdicts are reported and the exit code is 1")
	verbose := flag.Bool("v", false, "print fired faults and repro artifacts")
	specPath := flag.String("spec", "", "load a full run.Spec JSON file; explicit flags override its fields")
	genFlag := flag.String("gen", "", "generate a fresh synthetic task set per job: comma-separated key=value pairs (tasks, util, sems, mutexes, mbfs, flags, irqs, pmin, pmax); empty values allowed (-gen \"\")")
	flag.Parse()

	if *traceOut != "" && *job < 0 {
		fmt.Fprintln(os.Stderr, "-trace requires -job (one replay per trace file)")
		os.Exit(2)
	}

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var spec run.Spec
	if *specPath != "" {
		var err error
		spec, err = run.LoadSpecFile(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if spec.Scenario == "" {
			spec.Scenario = run.ScenarioChaos
		}
		if spec.Scenario != run.ScenarioChaos {
			fmt.Fprintf(os.Stderr, "chaos: spec scenario is %q, want %q\n", spec.Scenario, run.ScenarioChaos)
			os.Exit(2)
		}
	} else {
		spec = run.Spec{Scenario: run.ScenarioChaos}
	}
	if spec.Chaos == nil {
		spec.Chaos = &run.ChaosSpec{}
	}
	cs := spec.Chaos

	// Flags given explicitly win over the spec file; without -spec this
	// reproduces the historical all-flags construction.
	if *specPath == "" || explicit["seeds"] {
		cs.Seeds = *seeds
	}
	if *specPath == "" || explicit["workers"] {
		cs.Workers = *workers
	}
	if *specPath == "" || explicit["tasks"] {
		cs.Tasks = *tasks
	}
	if *specPath == "" || explicit["faults"] {
		cs.Faults = *faults
	}
	if *specPath == "" || explicit["corrupt"] {
		cs.Corrupt = *corrupt
	}
	if *specPath == "" || explicit["minimize"] {
		cs.Minimize = *minimize
	}
	if *specPath == "" || explicit["seed"] {
		spec.Seed = *seed
	}
	if *specPath == "" || explicit["dur"] {
		spec.Dur = run.Duration(*dur)
	}
	if *specPath == "" || explicit["timeout"] {
		spec.Deadline = run.Duration(*timeout)
	}
	if *job >= 0 {
		cs.Job = job
	}
	if *genFlag != "" || explicit["gen"] {
		gs, err := workload.ParseGenFlag(*genFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cs.Synthetic = gs
	}
	if len(spec.Artifacts) == 0 {
		spec.Artifacts = []string{run.ArtifactSummary, run.ArtifactRepro}
	}
	if *traceOut != "" && !hasArtifact(spec.Artifacts, run.ArtifactTrace) {
		spec.Artifacts = append(spec.Artifacts, run.ArtifactTrace)
	}

	res, runErr := run.Execute(context.Background(), spec)
	if *traceOut != "" && runErr == nil {
		if err := os.WriteFile(*traceOut, res.Artifacts[run.ArtifactTrace], 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (load at ui.perfetto.dev)\n", *traceOut)
	}

	fmt.Print(string(res.Artifacts[run.ArtifactSummary]))
	fmt.Fprintf(os.Stderr, "wall: %v (%d workers)\n", res.Stats.Wall.Std().Round(time.Millisecond), cs.Workers)

	if repro := res.Artifacts[run.ArtifactRepro]; len(repro) > 0 && (*verbose || res.Stats.Failures > 0) {
		fmt.Println()
		os.Stdout.Write(repro)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "chaos:", runErr)
		os.Exit(1)
	}
	if res.Stats.Failures > 0 {
		os.Exit(1)
	}
}

func hasArtifact(arts []string, name string) bool {
	for _, a := range arts {
		if a == name {
			return true
		}
	}
	return false
}
