package chaos

import (
	"strings"
	"testing"

	"repro/internal/sysc"
	"repro/internal/workload"
)

// TestSyntheticCampaign runs a small campaign over generated task sets on
// one and two workers: every job must pass the oracles, and the summaries
// must be byte-identical across pool sizes (the chaos half of the synthetic
// determinism contract).
func TestSyntheticCampaign(t *testing.T) {
	base := Config{
		Seeds:     5,
		BaseSeed:  0xC0FFEE,
		Dur:       80 * sysc.Ms,
		Synthetic: &workload.GenSpec{Interrupts: 2},
	}
	var summaries [2]string
	for i := range summaries {
		cfg := base
		cfg.Workers = i + 1
		rep := Run(cfg)
		if got := len(rep.Verdicts); got != base.Seeds {
			t.Fatalf("workers=%d: %d verdicts, want %d", cfg.Workers, got, base.Seeds)
		}
		for _, v := range rep.Verdicts {
			if !v.Pass {
				t.Errorf("workers=%d: job %d failed:\n%s", cfg.Workers, v.Index, v.Repro)
			}
			if v.Cycles == 0 {
				t.Errorf("workers=%d: job %d made no activations", cfg.Workers, v.Index)
			}
		}
		summaries[i] = rep.Summary()
	}
	if summaries[0] != summaries[1] {
		t.Errorf("summaries differ between pool sizes:\n--- 1 worker ---\n%s--- 2 workers ---\n%s",
			summaries[0], summaries[1])
	}
	if !strings.Contains(summaries[0], "synthetic workload:") {
		t.Errorf("summary missing the synthetic header:\n%s", summaries[0])
	}
}

// TestSyntheticTargetsFilterKinds asserts a target set without pools or
// interrupts never draws faults it cannot inject (RandomSchedule used to
// assume the built-in layout).
func TestSyntheticTargetsFilterKinds(t *testing.T) {
	cfg := Config{Synthetic: &workload.GenSpec{Interrupts: -1, Mbfs: -1}}.normalized()
	targets := jobTargets(cfg, 1)
	if len(targets.IntNos) != 0 || targets.Mbf != 0 || targets.Mpf != 0 {
		t.Fatalf("unexpected targets: %+v", targets)
	}
	sched := drawSchedule(cfg, 1)
	if len(sched) != cfg.Faults {
		t.Fatalf("%d faults drawn, want %d", len(sched), cfg.Faults)
	}
	for _, f := range sched {
		switch f.Kind {
		case ETMInflate, TickDelay:
		default:
			t.Errorf("fault kind %v drawn without a target for it", f.Kind)
		}
	}
}
