package run

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/snapshot"
	"repro/internal/sweep"
)

// SweepSpec describes a seed sweep sharing a common prefix: every variant
// runs Base with the arrival streams reseeded at Prefix. Cold mode
// simulates each variant from scratch (a two-leg checkpoint run per seed);
// warm mode simulates the prefix once per worker, captures an in-memory
// checkpoint at the fork point, and restores+reseeds per seed. The two
// modes produce byte-identical artifacts — warm is purely a wall-clock
// optimization, and the equality is enforced by tests.
type SweepSpec struct {
	// Base is the run every variant executes (synthetic scenario).
	Base Spec `json:"base"`
	// Prefix is the shared-prefix duration — the fork point. Must be
	// positive and before Base.Dur.
	Prefix Duration `json:"prefix"`
	// Seeds are the variant fork seeds, one result each.
	Seeds []uint64 `json:"seeds"`
	// Workers sizes the pool (0 = GOMAXPROCS; never affects results).
	Workers int `json:"workers,omitempty"`
	// Warm forks variants from in-memory checkpoints instead of re-running
	// the prefix per seed.
	Warm bool `json:"warm,omitempty"`
}

// ExecuteSweep runs the sweep and returns one Result per seed, in seed
// order regardless of worker count or mode.
func ExecuteSweep(ctx context.Context, sw SweepSpec) ([]Result, error) {
	base := sw.Base
	if base.Scenario == "" {
		base.Scenario = ScenarioSynthetic
	}
	if base.Scenario != ScenarioSynthetic {
		return nil, fmt.Errorf("run: sweep requires scenario %q, got %q", ScenarioSynthetic, base.Scenario)
	}
	if base.Checkpoint != nil {
		return nil, fmt.Errorf("run: sweep base must not carry its own checkpoint")
	}
	if sw.Prefix <= 0 {
		return nil, fmt.Errorf("run: sweep requires a positive prefix")
	}
	if d := durOr(base.Dur, defaultSyntheticDur); sw.Prefix >= d {
		return nil, fmt.Errorf("run: sweep prefix (%v) must be before dur (%v)", sw.Prefix, d)
	}
	if len(sw.Seeds) == 0 {
		return nil, nil
	}
	if err := Validate(coldSpec(base, sw.Prefix, sw.Seeds[0])); err != nil {
		return nil, err
	}
	if sw.Warm {
		return warmSweep(ctx, sw, base)
	}
	return coldSweep(ctx, sw, base)
}

// coldSpec is the per-seed cold variant: a two-leg checkpoint run that
// reseeds the arrival streams at the fork point.
func coldSpec(base Spec, prefix Duration, seed uint64) Spec {
	s := seed
	sp := base
	sp.Checkpoint = &CheckpointSpec{At: prefix, ForkSeed: &s}
	return sp
}

// coldSweep runs every variant from scratch across the worker pool.
func coldSweep(ctx context.Context, sw SweepSpec, base Spec) ([]Result, error) {
	type out struct {
		res Result
		err error
	}
	outs, err := sweep.RunContext(ctx, sweep.Runner{Workers: sw.Workers}, sw.Seeds,
		func(_ sweep.Job, seed uint64) out {
			res, e := Execute(ctx, coldSpec(base, sw.Prefix, seed))
			return out{res, e}
		})
	results := make([]Result, len(outs))
	for i, o := range outs {
		results[i] = o.res
		if err == nil && o.err != nil {
			err = o.err
		}
	}
	return results, err
}

// warmSweep splits the seeds into contiguous chunks, one per worker; each
// worker simulates the shared prefix once and forks its chunk's variants
// from the in-memory checkpoint.
func warmSweep(ctx context.Context, sw SweepSpec, base Spec) ([]Result, error) {
	workers := sw.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sw.Seeds) {
		workers = len(sw.Seeds)
	}
	results := make([]Result, len(sw.Seeds))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(sw.Seeds) / workers
		hi := (w + 1) * len(sw.Seeds) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = warmChunk(ctx, sw, base, sw.Seeds[lo:hi], results[lo:hi])
		}(w, lo, hi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return results, e
		}
	}
	return results, nil
}

// warmChunk runs one worker's seeds against one shared-prefix checkpoint.
func warmChunk(ctx context.Context, sw SweepSpec, base Spec, seeds []uint64, out []Result) error {
	sys := buildSynSystem(base, StreamOptions{})
	defer sys.sim.Shutdown()
	if err := sys.sim.StartContext(ctx, sw.Prefix.Sim()); err != nil {
		return err
	}
	st, err := snapshot.Capture(sys.snapSystem())
	if err != nil {
		return err
	}
	for i, seed := range seeds {
		if err := snapshot.Fork(sys.snapSystem(), st, seed); err != nil {
			return err
		}
		wall0 := time.Now()
		if err := sys.sim.StartContext(ctx, sys.dur); err != nil {
			return err
		}
		res := sys.result(time.Since(wall0))
		var runErr error
		sys.harvest(&res, &runErr, false)
		if runErr != nil {
			return runErr
		}
		out[i] = res
	}
	return nil
}
