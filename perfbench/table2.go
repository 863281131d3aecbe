package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/run"
)

// table2 is the paper's case study over the Table 2 grid: the videogame
// scenario (kernel + i8051 BFM + GUI widgets + game tasks) for 1 simulated
// second, stats only, at gui off/on times frame period 10/20/50/100 ms. It
// is the only workload that drives the BFM, the GUI and the application
// bodies; observers and the serving stack do almost no work here.
type table2 struct {
	cfgs  []t2config
	order []int // op i runs cfgs[order[i%len(order)]]
}

type t2config struct {
	name  string
	gui   bool
	frame time.Duration
	spec  run.Spec
	ref   run.Stats // the first run's stats: the deterministic digest reference
	walls []float64 // traced runs only: op wall in ns
}

// t2Dur is the simulated time per op: the paper's S of 1 s.
const t2Dur = time.Second

func (t *table2) setup(seed uint64) (time.Duration, error) {
	rng := rand.New(rand.NewPCG(seed, 0x7ab1e2))
	t.cfgs = nil
	for _, gui := range []bool{false, true} {
		for _, f := range []time.Duration{10, 20, 50, 100} {
			g := gui
			frame := f * time.Millisecond
			t.cfgs = append(t.cfgs, t2config{
				name: fmt.Sprintf("gui=%v/frame=%v", gui, frame),
				gui:  gui, frame: frame,
				spec: run.Spec{
					Scenario: run.ScenarioVideogame,
					Dur:      run.Duration(t2Dur),
					Seed:     rng.Uint64(),
					GUI:      &g,
					Frame:    run.Duration(frame),
				},
			})
		}
	}
	// A round is the grid plus a second op of the scenario's default
	// configuration (gui on, frame 10 ms). Nine ops per round keep the
	// median inside one configuration's cluster of op times rather than
	// on the boundary between two.
	round := []int{0, 1, 2, 3, 4, 5, 6, 7, 4}
	t.order = nil
	for r := 0; r < 16; r++ {
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		t.order = append(t.order, round...)
	}
	// Warm-up: the first run of every configuration is the reference its
	// later runs must reproduce.
	for i := range t.cfgs {
		res, err := run.Execute(context.Background(), t.cfgs[i].spec)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t.cfgs[i].name, err)
		}
		t.cfgs[i].ref = res.Stats
	}
	// Then eight rounds, so lazily grown state reaches steady size before
	// the timed phase.
	warm := newRecorder()
	t.drive(time.Time{}, 8*len(round), nil, warm)
	return 0, warm.firstErr
}

// digest is the deterministic part of a videogame run's stats.
func digest(s run.Stats) string {
	return fmt.Sprintf("frames=%d score=%d ctxsw=%d ticks=%d", s.Frames, s.Score, s.CtxSwitches, s.Ticks)
}

func (t *table2) reference() string {
	var b strings.Builder
	for _, c := range t.cfgs {
		fmt.Fprintf(&b, "%s %s\n", c.name, digest(c.ref))
	}
	return b.String()
}

func (t *table2) run(deadline time.Time, tr *tracer, rec *recorder) error {
	t.drive(deadline, 0, tr, rec)
	return nil
}

// drive runs ops until the deadline passes or, with a zero deadline,
// until n ops have run.
func (t *table2) drive(deadline time.Time, n int, tr *tracer, rec *recorder) {
	ctx := context.Background()
	for i := 0; (deadline.IsZero() && i < n) || (!deadline.IsZero() && time.Now().Before(deadline)); i++ {
		c := &t.cfgs[t.order[i%len(t.order)]]
		sp := tr.begin("run.Execute", i, -1)
		t0 := time.Now()
		res, err := run.Execute(ctx, c.spec)
		wall := time.Since(t0)
		tr.end(sp)
		if err == nil && digest(res.Stats) != digest(c.ref) {
			err = fmt.Errorf("%s: stats %s, first run %s", c.name, digest(res.Stats), digest(c.ref))
		}
		if tr != nil {
			c.walls = append(c.walls, float64(wall))
		}
		rec.op(wall, t2Dur.Seconds(), err)
	}
}

func (t *table2) verify() error { return nil }

// layers derives the GUI and BFM costs from configuration pairs that
// differ in one knob: gui on minus gui off at the same frame period, per
// refresh; frame 10 ms minus frame 100 ms with gui off, per extra frame.
func (t *table2) layers(_ *tracer, m metricSet, _ map[string]tail) {
	find := func(gui bool, frame time.Duration) *t2config {
		for i := range t.cfgs {
			if t.cfgs[i].gui == gui && t.cfgs[i].frame == frame {
				return &t.cfgs[i]
			}
		}
		panic("table2: missing grid point")
	}
	on10, off10, off100 := find(true, 10*time.Millisecond), find(false, 10*time.Millisecond), find(false, 100*time.Millisecond)
	m.set("gui.ns_per_refresh", (median(on10.walls)-median(off10.walls))/float64(on10.ref.Frames), "ns")
	m.set("bfm.ns_per_frame", (median(off10.walls)-median(off100.walls))/float64(off10.ref.Frames-off100.ref.Frames), "ns")
}

func (t *table2) close() {}
