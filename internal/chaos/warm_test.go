package chaos

import (
	"context"
	"testing"

	"repro/internal/sweep"
	"repro/internal/sysc"
	"repro/internal/workload"
)

// TestWarmTrialMatchesCold is the warm-ddmin equivalence property: for 20
// campaign seeds, every ddmin-style trial — the full schedule, each
// single-fault subset and the empty subset — must produce the same verdict
// and the same deterministic activity digest whether it runs warm
// (checkpoint restore + subset activation) or cold (full rebuild). This is
// exactly the predicate ddmin consults, so trial equivalence implies
// minimized-schedule equivalence.
func TestWarmTrialMatchesCold(t *testing.T) {
	cfg := Config{
		BaseSeed:  0xD15EA5E,
		Dur:       50 * sysc.Ms,
		Synthetic: &workload.GenSpec{Interrupts: 2},
	}.normalized()
	ctx := context.Background()
	for index := 0; index < 20; index++ {
		seed := sweep.Seed(cfg.BaseSeed, index)
		sched := drawSchedule(cfg, seed)

		wm := newWarmMinimizer(ctx, cfg, seed, sched)
		if wm == nil {
			t.Fatalf("job %d: warm minimizer refused a synthetic config", index)
		}

		subsets := []Schedule{sched, nil}
		for i := range sched {
			subsets = append(subsets, Schedule{sched[i]})
		}
		for si, sub := range subsets {
			warmPass, err := wm.trial(ctx, sub)
			if err != nil {
				t.Fatalf("job %d subset %d: warm trial: %v", index, si, err)
			}
			warmTicks := wm.sys.K.Ticks()
			warmCtx := wm.sys.K.API().ContextSwitches()
			warmIrq := wm.sys.K.API().Interrupts()
			warmCycles := wm.sys.Cycles()

			cold, _ := execute(ctx, cfg, seed, sub, nil)
			if cold.Pass != warmPass {
				t.Errorf("job %d subset %d: verdict differs: warm pass=%v cold pass=%v",
					index, si, warmPass, cold.Pass)
			}
			if cold.Ticks != warmTicks || cold.CtxSwitches != warmCtx ||
				cold.Interrupts != warmIrq || cold.Cycles != warmCycles {
				t.Errorf("job %d subset %d: digest differs: warm ticks=%d ctx=%d irq=%d cycles=%d, cold ticks=%d ctx=%d irq=%d cycles=%d",
					index, si, warmTicks, warmCtx, warmIrq, warmCycles,
					cold.Ticks, cold.CtxSwitches, cold.Interrupts, cold.Cycles)
			}
		}
		wm.close()
	}
}

// TestWarmMinimizerRefusesUnsupported: the built-in application is outside
// the snapshot envelope — the minimizer must signal cold fallback by
// returning nil, never by failing trials.
func TestWarmMinimizerRefusesUnsupported(t *testing.T) {
	ctx := context.Background()
	builtin := Config{Dur: 50 * sysc.Ms}.normalized()
	if wm := newWarmMinimizer(ctx, builtin, 1, drawSchedule(builtin, 1)); wm != nil {
		wm.close()
		t.Fatalf("built-in app: want nil warm minimizer")
	}
}
