package run

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

// The golden-digest table pins the determinism contract: the artifacts of
// every case below are a pure function of the Spec. It was recorded when
// the repository still carried two T-THREAD engines (a goroutine-per-thread
// reference and the compiled continuation machines) and both produced these
// exact bytes, so the tests below keep diffing today's single engine
// against the output both engines agreed on. Regenerate with
// -update-golden only for an intended artifact change, and say why in the
// commit.

const goldenPath = "testdata/golden_digests.json"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from this run")

var golden struct {
	once sync.Once
	mu   sync.Mutex
	want map[string]string
	got  map[string]string
}

// loadGolden reads the committed digest table once per test binary.
func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	golden.once.Do(func() {
		golden.got = map[string]string{}
		if *updateGolden {
			return
		}
		b, err := os.ReadFile(goldenPath)
		if err == nil {
			err = json.Unmarshal(b, &golden.want)
		}
		if err != nil {
			t.Fatalf("golden digests: %v", err)
		}
	})
	return golden.want
}

// TestMain writes the recorded digests back after an -update-golden run.
func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if *updateGolden && code == 0 {
		b, _ := json.MarshalIndent(golden.got, "", "\t")
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// checkGolden runs spec and asserts every artifact's SHA-256 matches the
// table entry "<key>/<artifact>", and that no artifact is missing or extra.
func checkGolden(t *testing.T, key string, spec Spec) {
	t.Helper()
	want := loadGolden(t)
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	names := make([]string, 0, len(res.Artifacts))
	for name := range res.Artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sum := sha256.Sum256(res.Artifacts[name])
		got := hex.EncodeToString(sum[:])
		entry := key + "/" + name
		if *updateGolden {
			golden.mu.Lock()
			golden.got[entry] = got
			golden.mu.Unlock()
			continue
		}
		if w, ok := want[entry]; !ok {
			t.Errorf("%s: artifact not in the golden table", entry)
		} else if w != got {
			t.Errorf("%s: sha256 %s, golden %s (%d bytes)", entry, got, w, len(res.Artifacts[name]))
		}
	}
	if *updateGolden {
		return
	}
	for entry := range want {
		if name, ok := strings.CutPrefix(entry, key+"/"); ok {
			if _, ok := res.Artifacts[name]; !ok {
				t.Errorf("%s: golden artifact not produced", entry)
			}
		}
	}
}

// TestEngineDiffVideogame checks the videogame scenario across the paper's
// headline configurations: the full artifact set — Perfetto trace, metrics
// report, gantt, DS listing, console digest — must match the golden table.
func TestEngineDiffVideogame(t *testing.T) {
	arts := []string{ArtifactConsole, ArtifactTrace, ArtifactMetrics, ArtifactGantt, ArtifactDS}
	off := false
	cases := []struct {
		label string
		spec  Spec
	}{
		{"default", Spec{Dur: simMs(300), Artifacts: arts}},
		{"seeded", Spec{Dur: simMs(300), Seed: 7, Artifacts: arts}},
		{"gui-off", Spec{Dur: simMs(300), GUI: &off, Artifacts: arts}},
		{"frame-off", Spec{Dur: simMs(300), Frame: -1, Artifacts: arts}},
		{"idle-sleep", Spec{Dur: simMs(300), IdleSleep: simMs(5), Artifacts: arts}},
		{"tickless-off", Spec{Dur: simMs(300), Tickless: &off, Artifacts: arts}},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) { checkGolden(t, "videogame/"+tc.label, tc.spec) })
	}
}

// TestEngineDiffChaos checks the 20-seed chaos campaign's summary and repro
// artifacts, and each seed's single-job replay with its Perfetto trace,
// against the golden table.
func TestEngineDiffChaos(t *testing.T) {
	const seeds = 20
	checkGolden(t, "chaos/campaign", Spec{
		Scenario:  ScenarioChaos,
		Seed:      42,
		Chaos:     &ChaosSpec{Seeds: seeds, Workers: 1},
		Artifacts: []string{ArtifactSummary, ArtifactRepro},
	})
	if testing.Short() {
		t.Skip("per-seed trace replays skipped in -short mode")
	}
	for job := 0; job < seeds; job++ {
		job := job
		t.Run(fmt.Sprintf("job%02d", job), func(t *testing.T) {
			checkGolden(t, fmt.Sprintf("chaos/job%02d", job), Spec{
				Scenario:  ScenarioChaos,
				Seed:      42,
				Chaos:     &ChaosSpec{Job: &job},
				Artifacts: []string{ArtifactSummary, ArtifactTrace},
			})
		})
	}
}

// TestEngineDiffSynthetic checks 10 generated task sets: the Perfetto
// trace, metrics report and resolved task-set artifacts must match the
// golden table.
func TestEngineDiffSynthetic(t *testing.T) {
	arts := []string{ArtifactTrace, ArtifactMetrics, ArtifactTaskSet}
	for seed := uint64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			checkGolden(t, fmt.Sprintf("synthetic/seed%02d", seed), Spec{
				Scenario:  ScenarioSynthetic,
				Seed:      seed,
				Dur:       simMs(200),
				Synthetic: &SyntheticSpec{Gen: &workload.GenSpec{}},
				Artifacts: arts,
			})
		})
	}
}

// simMs builds a Duration of n simulated milliseconds.
func simMs(n int64) Duration { return Duration(n * 1e6) }
