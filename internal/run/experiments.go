package run

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/sysc"
)

// sectionDivider separates experiment sections in the report, matching the
// historical cmd/experiments output.
const sectionDivider = "================================================================"

// experimentSections is the canonical section order, the order "all"
// expands to.
var experimentSections = []string{
	"table1", "table2", "fig6", "fig7", "fig8", "fig4",
	"a1", "a2", "a3", "speed",
}

// executeExperiments regenerates the requested paper tables and figures
// into ArtifactReport. The report embeds wall-clock speed measurements
// (Table 2's R and S/R columns), so unlike the other scenarios its bytes
// are not reproducible across runs — only across transports.
func executeExperiments(ctx context.Context, spec Spec) (Result, error) {
	es := spec.Experiments
	if es == nil {
		es = &ExperimentsSpec{}
	}
	sections, err := expandSections(es.Sections)
	if err != nil {
		return Result{}, err
	}
	simS := es.SimTime.Sim()
	if simS <= 0 {
		simS = 1 * sysc.Sec
	}
	workers := es.Workers
	if workers == 0 {
		workers = 1
	}

	var rep, vcdBuf, metricsBuf bytes.Buffer
	w := &rep
	wall0 := time.Now()
	var runErr error
	for i, sec := range sections {
		// Experiment sections run to completion; the context is honored at
		// section granularity.
		if ctx.Err() != nil {
			runErr = context.Cause(ctx)
			break
		}
		if i > 0 {
			fmt.Fprintln(w, "\n"+sectionDivider)
		}
		switch sec {
		case "table1":
			experiments.Table1(w)
		case "table2":
			cfg := experiments.DefaultTable2Config()
			cfg.SimTime = simS
			cfg.BaseSeed = spec.Seed
			if workers == 1 {
				experiments.Table2(w, cfg)
			} else {
				experiments.Table2Parallel(w, cfg, workers)
			}
		case "fig4":
			if wants(spec, ArtifactVCD) {
				fmt.Fprintf(w, "Figure 4 VCD written to %s\n", ArtifactVCD)
				experiments.Figure4(&vcdBuf, 200*sysc.Ms)
			} else {
				experiments.Figure4(w, 200*sysc.Ms)
			}
		case "fig6":
			experiments.Figure6(w, 100*sysc.Ms)
		case "fig7":
			if wants(spec, ArtifactMetrics) {
				experiments.Figure7Metrics(w, &metricsBuf, 1*sysc.Sec)
				fmt.Fprintf(w, "metrics: per-task report written to %s\n", ArtifactMetrics)
			} else {
				experiments.Figure7(w, 1*sysc.Sec)
			}
		case "fig8":
			experiments.Figure8(w, 500*sysc.Ms)
		case "a1":
			experiments.AblationDelayedDispatch(w, []sysc.Time{
				0, 500 * sysc.Us, 2 * sysc.Ms, 5 * sysc.Ms,
			})
		case "a2":
			experiments.AblationGranularityParallel(w, []sysc.Time{
				100 * sysc.Us, 500 * sysc.Us, 1 * sysc.Ms, 5 * sysc.Ms, 10 * sysc.Ms,
			}, workers)
		case "a3":
			experiments.AblationSchedulers(w)
		case "speed":
			experiments.SpeedComparison(w, simS)
		}
	}
	wall := time.Since(wall0)

	res := Result{
		Stats: Stats{
			Scenario: ScenarioExperiments,
			Wall:     Duration(wall),
		},
		Artifacts: map[string][]byte{},
	}
	if wants(spec, ArtifactReport) {
		res.Artifacts[ArtifactReport] = exact(&rep)
	}
	if wants(spec, ArtifactVCD) {
		res.Artifacts[ArtifactVCD] = exact(&vcdBuf)
	}
	if wants(spec, ArtifactMetrics) {
		res.Artifacts[ArtifactMetrics] = exact(&metricsBuf)
	}
	return res, runErr
}

// expandSections validates the requested sections and expands "all" (or an
// empty list) to the canonical order.
func expandSections(in []string) ([]string, error) {
	if len(in) == 0 {
		return experimentSections, nil
	}
	known := map[string]bool{"all": true}
	for _, s := range experimentSections {
		known[s] = true
	}
	for _, s := range in {
		if !known[s] {
			return nil, fmt.Errorf("run: unknown experiments section %q", s)
		}
		if s == "all" {
			return experimentSections, nil
		}
	}
	return in, nil
}
