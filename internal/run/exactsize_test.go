package run

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// sizeClass is the capacity the allocator gives an n-byte slice.
func sizeClass(n int) int { return cap(append([]byte(nil), make([]byte, n)...)) }

// checkExactSize fails when an artifact holds more capacity than its own
// size class: a result cache accounts artifacts by length, so spare
// capacity is memory it never sees.
func checkExactSize(t *testing.T, name string, arts map[string][]byte) {
	t.Helper()
	for k, a := range arts {
		if len(a) == 0 {
			t.Errorf("%s: %s is empty", name, k)
		}
		if c := sizeClass(len(a)); cap(a) > c {
			t.Errorf("%s: %s has len %d, cap %d: more than its size class %d", name, k, len(a), cap(a), c)
		}
	}
}

// TestArtifactsExactSize: every buffered artifact of the videogame and
// synthetic scenarios, a chaos replay, and a warm sweep's forked variants
// comes back with no capacity beyond its size class.
func TestArtifactsExactSize(t *testing.T) {
	ctx := context.Background()
	vg := Spec{
		Dur: simMs(50),
		Artifacts: []string{ArtifactTrace, ArtifactMetrics, ArtifactGantt,
			ArtifactVCD, ArtifactDS, ArtifactConsole},
	}
	res, err := Execute(ctx, vg)
	if err != nil {
		t.Fatal(err)
	}
	checkExactSize(t, "videogame", res.Artifacts)

	syn := Spec{
		Scenario:   ScenarioSynthetic,
		Seed:       7,
		Dur:        simMs(100),
		Synthetic:  &SyntheticSpec{Gen: &workload.GenSpec{Tasks: 6, Util: 0.6, Interrupts: 1}},
		Checkpoint: &CheckpointSpec{At: simMs(40)},
		Artifacts: []string{ArtifactTrace, ArtifactMetrics, ArtifactGantt,
			ArtifactTaskSet, ArtifactSnapshot},
	}
	if res, err = Execute(ctx, syn); err != nil {
		t.Fatal(err)
	}
	checkExactSize(t, "synthetic", res.Artifacts)

	job := 3
	ch := Spec{
		Scenario:  ScenarioChaos,
		Seed:      7,
		Dur:       simMs(60),
		Chaos:     &ChaosSpec{Job: &job},
		Artifacts: []string{ArtifactSummary, ArtifactTrace},
	}
	if res, err = Execute(ctx, ch); err != nil {
		t.Fatal(err)
	}
	checkExactSize(t, "chaos replay", res.Artifacts)

	base := syn
	base.Checkpoint = nil
	base.Artifacts = []string{ArtifactTrace, ArtifactMetrics, ArtifactGantt, ArtifactTaskSet}
	results, err := ExecuteSweep(ctx, SweepSpec{Base: base, Prefix: simMs(40), Seeds: []uint64{1, 2, 3}, Workers: 1, Warm: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		checkExactSize(t, "warm sweep variant", r.Artifacts)
	}
}
