package app_test

import (
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/bfm"
	"repro/internal/sysc"
	"repro/internal/tkds"
	"repro/internal/trace"
)

// buildAndRun assembles the full co-simulation framework and simulates d.
func buildAndRun(t *testing.T, cfg app.Config, d sysc.Time) *app.App {
	t.Helper()
	a := app.Build(cfg)
	t.Cleanup(a.Shutdown)
	if err := a.Run(d); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestVideoGameOneSecond(t *testing.T) {
	cfg := app.DefaultConfig()
	cfg.GUI = false // keep the functional test fast
	a := buildAndRun(t, cfg, sysc.Sec)

	// H1 fires every 10 ms: ~100 frames in one second.
	if a.Frames() < 95 || a.Frames() > 101 {
		t.Fatalf("frames = %d, want ~100", a.Frames())
	}
	// H2 fires at 500 ms and re-arms: 2 bonuses by t=1 s.
	if a.Bonus() < 1 || a.Bonus() > 3 {
		t.Fatalf("bonus = %d", a.Bonus())
	}
	// The ball traverses 16 cells at 100 frames/s: several paddle chances;
	// the key pattern holds the paddle up often enough to score.
	if a.Score() == 0 {
		t.Fatal("no paddle hits scored")
	}
	// Keypad interrupts were raised and dispatched.
	info, er := a.K.RefInt(bfm.KeypadIntLine)
	if er.OK() == false || info.Fires == 0 {
		t.Fatalf("keypad ISR fires = %+v %v", info, er)
	}
	// The SSD shows the current total.
	total := a.Score() + a.Bonus()
	if a.SSD.Value() != total {
		t.Fatalf("SSD shows %d, want %d", a.SSD.Value(), total)
	}
	// Serial transmitted score reports (one per score update).
	if a.B.Serial.TxCount() == 0 {
		t.Fatal("no serial traffic")
	}
	// Energy accounting: all four tasks consumed energy; the idle task
	// consumed the most CPU time (it runs whenever nothing else does).
	api := a.K.API()
	idle := api.LookupByName("T4.idle")
	lcd := api.LookupByName("T1.lcd")
	if idle == nil || lcd == nil {
		t.Fatal("tasks missing from registry")
	}
	if idle.CET() < lcd.CET() {
		t.Fatalf("idle CET %v < lcd CET %v", idle.CET(), lcd.CET())
	}
	if api.BusyTime() == 0 || api.TotalCEE() == 0 {
		t.Fatal("no busy time / energy accounted")
	}
	// CPU cannot be busy longer than simulated time.
	if api.BusyTime() > sysc.Sec {
		t.Fatalf("busy %v exceeds simulated 1 s", api.BusyTime())
	}
}

func TestVideoGameTraceNoOverlap(t *testing.T) {
	g := trace.NewGantt()
	cfg := app.DefaultConfig()
	cfg.GUI = false
	cfg.Gantt = g
	a := buildAndRun(t, cfg, 200*sysc.Ms)
	if len(g.Segments) == 0 {
		t.Fatal("no trace segments")
	}
	if s1, s2, overlap := g.CheckNoOverlap(); overlap {
		t.Fatalf("overlap: %+v vs %+v", s1, s2)
	}
	// The trace shows all execution contexts of Figure 6.
	byCtx := map[trace.Context]bool{}
	for _, s := range g.Segments {
		byCtx[s.Ctx] = true
	}
	for _, ctx := range []trace.Context{trace.CtxTask, trace.CtxService, trace.CtxHandler, trace.CtxBFM} {
		if !byCtx[ctx] {
			t.Errorf("context %v missing from trace", ctx)
		}
	}
	_ = a
}

func TestVideoGameBattery(t *testing.T) {
	cfg := app.DefaultConfig()
	cfg.GUI = false
	a := buildAndRun(t, cfg, sysc.Sec)
	if a.Battery.Consumed() <= 0 {
		t.Fatal("battery not depleting")
	}
	if a.Battery.Percent() >= 100 || a.Battery.Percent() <= 0 {
		t.Fatalf("percent = %v", a.Battery.Percent())
	}
	life, ok := a.Battery.Lifespan(sysc.Sec)
	if !ok || life <= sysc.Sec {
		t.Fatalf("lifespan = %v %v", life, ok)
	}
	// Render includes the bar and the distribution table.
	txt := a.Battery.RenderText()
	if !strings.Contains(txt, "BATTERY [") || !strings.Contains(txt, "TOTAL") {
		t.Fatalf("battery widget:\n%s", txt)
	}
}

func TestVideoGameDSListing(t *testing.T) {
	cfg := app.DefaultConfig()
	cfg.GUI = false
	a := buildAndRun(t, cfg, 100*sysc.Ms)
	ds := tkds.New(a.K)
	var b strings.Builder
	ds.Listing(&b)
	out := b.String()
	for _, name := range []string{"T1.lcd", "T2.keypad", "T3.ssd", "T4.idle",
		"frame-flg", "key-mbx", "score-sem", "H1.cyclic", "H2.alarm", "key-isr"} {
		if !strings.Contains(out, name) {
			t.Errorf("DS listing missing %q", name)
		}
	}
}

func TestVideoGameGUIRefreshesFollowBFMAccess(t *testing.T) {
	cfg := app.DefaultConfig()
	cfg.GUIWorkFactor = 1 // minimal host work, still counted
	a := buildAndRun(t, cfg, 200*sysc.Ms)
	// Every LCD/SSD device write refreshes its widget: ~20 frames × ~5
	// writes plus SSD updates.
	if a.GUI.Refreshes() < 50 {
		t.Fatalf("refreshes = %d", a.GUI.Refreshes())
	}
	if a.GUI.RasterChecksum() == 0 {
		t.Fatal("raster work was optimized away")
	}
}

func TestVideoGameNoFrames(t *testing.T) {
	cfg := app.DefaultConfig()
	cfg.GUI = false
	cfg.FramePeriod = 0 // no LCD frames: the BFM-access knob at "off"
	cfg.KeyPeriod = 0
	a := buildAndRun(t, cfg, 200*sysc.Ms)
	if a.Frames() != 0 {
		t.Fatalf("frames = %d, want 0", a.Frames())
	}
	if a.LCD.Writes() != 0 {
		t.Fatalf("lcd writes = %d", a.LCD.Writes())
	}
}

func TestVideoGameDeterministic(t *testing.T) {
	runOnce := func() (uint64, int, int, sysc.Time) {
		cfg := app.DefaultConfig()
		cfg.GUI = false
		a := app.Build(cfg)
		defer a.Shutdown()
		if err := a.Run(500 * sysc.Ms); err != nil {
			t.Fatal(err)
		}
		return a.Frames(), a.Score(), a.Bonus(), a.K.API().BusyTime()
	}
	f1, s1, b1, t1 := runOnce()
	f2, s2, b2, t2 := runOnce()
	if f1 != f2 || s1 != s2 || b1 != b2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%d,%d,%v) vs (%d,%d,%d,%v)",
			f1, s1, b1, t1, f2, s2, b2, t2)
	}
}

func TestVideoGameLCDShowsBall(t *testing.T) {
	cfg := app.DefaultConfig()
	cfg.GUI = false
	a := buildAndRun(t, cfg, 100*sysc.Ms)
	if !strings.Contains(a.LCD.Render(), "o") {
		t.Fatalf("no ball on LCD:\n%s", a.LCD.Render())
	}
}

// TestVideoGameBodiesCompiled: every task, handler and ISR of the case
// study is a Program compiled to a machine the scheduler loop drives
// inline — BFM accesses included — so only the INIT task, a closure body,
// runs on a goroutine.
func TestVideoGameBodiesCompiled(t *testing.T) {
	a := buildAndRun(t, app.DefaultConfig(), 50*sysc.Ms)
	compiled := map[string]bool{}
	for _, tt := range a.K.API().Threads() {
		compiled[tt.Name()] = tt.Compiled()
	}
	for _, name := range []string{"T1.lcd", "T2.keypad", "T3.ssd", "T4.idle",
		"H1.cyclic", "H2.alarm", "key-isr", "ser-isr"} {
		if c, ok := compiled[name]; !ok || !c {
			t.Errorf("%s: compiled=%v present=%v", name, c, ok)
		}
	}
	if compiled["INIT"] {
		t.Error("INIT should run its closure body on a goroutine")
	}
	if len(compiled) != 9 {
		t.Errorf("T-THREADs %v, want the eight bodies plus INIT", compiled)
	}
}
