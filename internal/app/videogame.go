// Package app implements the case-study application of Section 5.2: a video
// game that maps onto four communicating tasks {LCD:T1, Keypad:T2, SSD:T3,
// IDLE:T4} and two handlers {Cyclic:H1, Alarm:H2}, running on RTK-Spec TRON
// over the i8051 BFM, with GUI widgets wrapping the peripherals.
//
// The game is a one-row pong: a ball bounces across the 16×2 LCD, the
// player moves a paddle with the keypad, the score shows on the
// seven-segment display. H1 paces the frames, the keypad ISR forwards key
// events to T2 through a mailbox, T1 renders frames into the LCD over the
// parallel port (the BFM access that drives the GUI widget), T3 updates the
// SSD when the score changes, and T4 idles at the lowest priority.
package app

import (
	"context"

	"repro/internal/bfm"
	"repro/internal/core"
	"repro/internal/gui"
	"repro/internal/petri"
	"repro/internal/run/opts"
	"repro/internal/sweep"
	"repro/internal/sysc"
	"repro/internal/tkernel"
	"repro/internal/trace"
)

// Config parameterizes the co-simulation framework build. The embedded
// CommonOptions carry the cross-kernel knobs: Tick sets the BFM real-time
// clock period driving the kernel's central module (default 1 ms), Bus/Gantt
// the observability wiring; TimeSlice is ignored (RTK-Spec TRON is purely
// priority-preemptive).
type Config struct {
	opts.CommonOptions

	// FramePeriod is the cyclic-handler period pacing LCD frames — the BFM
	// access rate that drives the GUI widget (the paper sweeps this; max
	// rate is a widget refresh every 10 ms). Zero disables LCD frames.
	FramePeriod sysc.Time
	// AlarmPeriod re-arms the bonus alarm handler (default 500 ms).
	AlarmPeriod sysc.Time
	// KeyPeriod is the synthetic user pressing a key every KeyPeriod
	// (captures user events; zero disables).
	KeyPeriod sysc.Time
	// GUI enables the widget layer's host overhead.
	GUI bool
	// GUIWorkFactor overrides the widget raster work (0 = default).
	GUIWorkFactor int
	// VCD attaches a waveform recorder probing BFM signals (Figure 4).
	VCD *trace.VCD
	// Costs is the kernel annotation model (default DefaultCosts).
	Costs *tkernel.Costs
	// FrameWork is T1's computation per frame (default 300 us / 15 uJ).
	FrameWork core.Cost
	// IdleSlice is T4's work chunk per loop (default 10 ms at low power).
	// The slice is only a trace-segmentation granule: SIM_Wait is a
	// preemption point that wakes on the preempt event and charges pro
	// rata, so a longer slice changes neither scheduling instants nor
	// consumed time/energy — it just cuts the idle thread's park/wake
	// round-trips (and, under tickless, lets the clock skip across it).
	IdleSlice core.Cost
	// IdleSleep, when positive, makes T4 block in tk_dly_tsk for this long
	// per loop instead of modelling IdleSlice of busy work — the
	// halt-the-CPU idle loop of a real RTOS, and the configuration where
	// the tickless fast-forward pays off.
	IdleSleep sysc.Time
	// DisableTickless forces every RTC tick to be simulated (A/B trace
	// comparison, debugging).
	DisableTickless bool
	// Seed randomizes the synthetic user's key presses (deterministic per
	// seed). Zero keeps the legacy fixed up/down pattern.
	Seed uint64
}

// DefaultConfig returns the case-study configuration: a frame every 10 ms
// (the paper's maximum BFM access rate driving a GUI widget), bonus alarm
// every 500 ms, a key press every 120 ms.
func DefaultConfig() Config {
	return Config{
		FramePeriod: 10 * sysc.Ms,
		AlarmPeriod: 500 * sysc.Ms,
		KeyPeriod:   120 * sysc.Ms,
		GUI:         true,
	}
}

// App is the assembled co-simulation framework of Figure 5: RTK-Spec TRON +
// i8051 BFM + peripherals wrapped in GUI widgets + the video-game tasks.
type App struct {
	Sim *sysc.Simulator
	K   *tkernel.Kernel
	B   *bfm.BFM
	GUI *gui.Manager

	LCD *bfm.LCD
	Pad *bfm.Keypad
	SSD *bfm.SSD

	LCDW    *gui.LCDWidget
	SSDW    *gui.SSDWidget
	PadW    *gui.KeypadWidget
	Battery *gui.BatteryWidget
	TraceW  *gui.TraceWidget
	cfg     Config

	T1, T2, T3, T4 tkernel.ID
	H1, H2         tkernel.ID

	frameFlg tkernel.ID // H1 -> T1 frame pacing
	keyMbx   tkernel.ID // ISR -> T2 key events
	scoreSem tkernel.ID // T2 -> T3 score updates

	// Game state (guarded by task structure: only T1/T2 mutate).
	ballX, ballDir int
	paddle         int
	score          int
	bonus          int
	frames         uint64
}

// Flag bits on frameFlg.
const (
	flgFrame uint32 = 1 << 0
	flgQuit  uint32 = 1 << 1
)

// Build assembles the framework on a fresh simulator and boots the kernel.
// Call Run (or drive app.Sim yourself) afterwards.
func Build(cfg Config) *App {
	if cfg.AlarmPeriod <= 0 {
		cfg.AlarmPeriod = 500 * sysc.Ms
	}
	if cfg.FrameWork == (core.Cost{}) {
		cfg.FrameWork = core.Cost{Time: 300 * sysc.Us, Energy: 15 * petri.MicroJ}
	}
	if cfg.IdleSlice == (core.Cost{}) {
		cfg.IdleSlice = core.Cost{Time: 10 * sysc.Ms, Energy: 20 * petri.MicroJ}
	}
	costs := tkernel.DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}

	a := &App{Sim: sysc.NewSimulator(), cfg: cfg, ballDir: 1}

	// Hardware side: BFM with RTC driving the kernel tick.
	a.GUI = gui.NewManager(cfg.GUI)
	if cfg.GUIWorkFactor > 0 {
		a.GUI.WorkFactor = cfg.GUIWorkFactor
	}

	// BFM first: its real-time clock (1 ms resolution) drives the kernel's
	// central module, exactly as in Figure 5. The SIM_API reference for
	// access-budget attribution is attached after kernel construction.
	bcfg := bfm.DefaultConfig()
	bcfg.VCD = cfg.VCD
	if cfg.Tick > 0 {
		bcfg.TickPeriod = cfg.Tick
	}
	a.B = bfm.New(a.Sim, nil, bcfg)
	a.K = tkernel.New(a.Sim, tkernel.Config{
		CommonOptions: opts.CommonOptions{
			Tick:  a.B.RTC.Period(),
			Bus:   cfg.Bus,
			Gantt: cfg.Gantt,
		},
		Costs:           costs,
		TickSource:      a.B.RTC.TickEvent(),
		Ticker:          a.B.RTC.Ticker(),
		DisableTickless: cfg.DisableTickless,
	})
	a.B.SetAPI(a.K.API())

	// Peripherals on the multiplexed parallel I/O (port 1) and interrupt
	// wiring.
	a.LCD = bfm.NewLCD(2, 16)
	a.Pad = bfm.NewKeypad(a.B.IntC)
	a.SSD = bfm.NewSSD()
	a.B.Ports[1].Attach(a.LCD) // select index 0
	a.B.Ports[1].Attach(a.SSD) // select index 1
	a.B.Ports[2].Attach(a.Pad)

	// Widgets wrapping the peripherals.
	a.LCDW = gui.NewLCDWidget(a.GUI, a.LCD)
	a.SSDW = gui.NewSSDWidget(a.GUI, a.SSD)
	a.PadW = gui.NewKeypadWidget(a.GUI, a.Pad)
	a.Battery = gui.NewBatteryWidget(a.GUI, a.K.API(), 10*petri.WattHour)
	if cfg.Gantt != nil {
		a.TraceW = gui.NewTraceWidget(a.GUI, cfg.Gantt, 100*sysc.Ms)
	}

	// Interrupt controller -> kernel interrupt dispatch.
	a.B.IntC.SetSink(func(line int) { _ = a.K.RaiseInterrupt(line) })
	a.B.IntC.EnableLine(bfm.KeypadIntLine)
	a.B.IntC.EnableLine(bfm.SerialIntLine)

	a.K.Boot(a.userMain)

	// Synthetic user pressing keys (GUI event capture). A non-zero seed
	// draws the up/down sequence from a deterministic stream instead of the
	// legacy fixed pattern, so runs vary by seed but replay exactly. The
	// user runs as a step-function coroutine: no goroutine of its own.
	if cfg.KeyPeriod > 0 {
		keys := []byte{2, 8, 2, 2, 8, 8} // up/down pattern
		var rng *sweep.RNG
		if cfg.Seed != 0 {
			rng = sweep.NewRNG(cfg.Seed)
		}
		click := func(i int) {
			key := keys[i%len(keys)]
			if rng != nil {
				key = keys[rng.Intn(len(keys))]
			}
			a.PadW.Click(key)
		}
		i, started := 0, false
		a.Sim.SpawnCoro("user.keys", func(c *sysc.Coro) {
			if started {
				click(i)
				i++
			}
			started = true
			c.Wait(cfg.KeyPeriod)
		})
	}
	return a
}

// userMain is the user main entry called by the INIT task: it creates and
// starts tasks, handlers and application resources (Figure 3's startup).
// Every body is a tkernel.Program, compiled to a resumable machine the
// scheduler loop drives inline; BFM accesses are Access ops.
func (a *App) userMain(k *tkernel.Kernel) {
	a.frameFlg, _ = k.CreFlg("frame-flg", tkernel.TaWMUL, 0)
	a.keyMbx, _ = k.CreMbx("key-mbx", tkernel.TaMFIFO)
	a.scoreSem, _ = k.CreSem("score-sem", tkernel.TaTFIFO, 0, 100)

	a.T1, _ = k.CreTskProg("T1.lcd", 10, a.lcdProgram(k))
	a.T2, _ = k.CreTskProg("T2.keypad", 8, a.keypadProgram(k))
	a.T3, _ = k.CreTskProg("T3.ssd", 12, a.ssdProgram(k))
	a.T4, _ = k.CreTskProg("T4.idle", 100, a.idleProgram(k))

	_ = k.StaTsk(a.T1)
	_ = k.StaTsk(a.T2)
	_ = k.StaTsk(a.T3)
	_ = k.StaTsk(a.T4)

	// H1: cyclic handler pacing frames at the BFM access rate.
	if a.cfg.FramePeriod > 0 {
		a.H1, _ = k.CreCycProg("H1.cyclic", a.cfg.FramePeriod, 0,
			k.NewHandlerProgram("H1.cyclic").
				Work(core.Cost{Time: 20 * sysc.Us, Energy: petri.MicroJ}, "frame-tick").
				SetFlg(&a.frameFlg, flgFrame, nil))
		_ = k.StaCyc(a.H1)
	}

	// H2: alarm handler awarding a periodic bonus, re-arming itself (the
	// StaAlm op reads &a.H2, assigned below after the program is built).
	a.H2, _ = k.CreAlmProg("H2.alarm",
		k.NewHandlerProgram("H2.alarm").
			Work(core.Cost{Time: 15 * sysc.Us, Energy: petri.MicroJ}, "bonus").
			Atom(func() { a.bonus++ }).
			SigSem(&a.scoreSem, 1, nil).
			StaAlm(&a.H2, a.cfg.AlarmPeriod, nil))
	_ = k.StaAlm(a.H2, a.cfg.AlarmPeriod)

	// Keypad ISR: read the key from the port, post it to T2's mailbox.
	var keyMsg *tkernel.Message
	pad := a.B.Ports[2]
	sel, rd := pad.SelectCharge(), pad.ReadCharge()
	_ = k.DefIntProg(bfm.KeypadIntLine, "key-isr",
		k.NewHandlerProgram("key-isr").
			Work(core.Cost{Time: 10 * sysc.Us, Energy: petri.MicroJ}, "key-isr").
			Access(sel.Cost, sel.Note, func() { pad.SelectEffect(0) }).
			Access(rd.Cost, rd.Note, func() {
				keyMsg = &tkernel.Message{Payload: pad.ReadEffect()}
			}).
			SndMbx(&a.keyMbx, &keyMsg, nil))
	// Serial ISR: count transmit completions (waveform fodder).
	_ = k.DefIntProg(bfm.SerialIntLine, "ser-isr",
		k.NewHandlerProgram("ser-isr").
			Work(core.Cost{Time: 5 * sysc.Us, Energy: 500 * petri.NanoJ}, "ser-isr"))
}

// lcdProgram is T1: wait for the frame event, compute the next game frame
// and render it into the LCD through BFM port writes — the accesses that
// drive the GUI widget.
func (a *App) lcdProgram(k *tkernel.Kernel) *tkernel.Program {
	var (
		ptn    uint32
		er     tkernel.ER
		scored bool
		glyph  byte
	)
	lcd := a.B.Ports[1]
	sel, wr := lcd.SelectCharge(), lcd.WriteCharge()
	return k.NewProgram("T1.lcd").
		Label("loop").
		WaiFlg(&a.frameFlg, flgFrame|flgQuit, tkernel.TwfORW|tkernel.TwfBitCLR,
			tkernel.TmoFevr, &ptn, &er).
		Br(func() bool { return er != tkernel.EOK || ptn&flgQuit != 0 }, "end").
		Work(a.cfg.FrameWork, "frame-compute").
		Atom(func() { scored = a.stepGame() }).
		Br(func() bool { return !scored }, "render").
		SigSem(&a.scoreSem, 1, nil).
		Label("render").
		Access(sel.Cost, sel.Note, func() { lcd.SelectEffect(0) }).
		Access(wr.Cost, wr.Note, func() { lcd.WriteEffect(0x01) }).
		Access(wr.Cost, wr.Note, func() { lcd.WriteEffect(0x80 | byte(a.ballX)) }).
		Access(wr.Cost, wr.Note, func() { lcd.WriteEffect('o') }).
		Access(wr.Cost, wr.Note, func() { lcd.WriteEffect(0x80 | 16 | 15) }). // paddle column, row 1
		// T2 may have moved the paddle during the writes above: sample it
		// just before the write that shows it.
		Atom(func() {
			glyph = ' '
			if a.paddle == 1 {
				glyph = ']'
			}
		}).
		Access(wr.Cost, wr.Note, func() { lcd.WriteEffect(glyph) }).
		Atom(func() { a.frames++ }).
		Jump("loop").
		Label("end")
}

// stepGame advances the ball and reports a paddle hit (the caller signals
// the score semaphore as its own program op).
func (a *App) stepGame() bool {
	a.ballX += a.ballDir
	if a.ballX <= 0 {
		a.ballX = 0
		a.ballDir = 1
	}
	if a.ballX >= 15 {
		a.ballX = 15
		a.ballDir = -1
		if a.paddle == 1 { // paddle in the ball's row half
			a.score++
			return true
		}
	}
	return false
}

// keypadProgram is T2: receive key events from the ISR's mailbox and move
// the paddle.
func (a *App) keypadProgram(k *tkernel.Kernel) *tkernel.Program {
	var (
		msg *tkernel.Message
		er  tkernel.ER
	)
	return k.NewProgram("T2.keypad").
		Label("loop").
		RcvMbx(&a.keyMbx, tkernel.TmoFevr, &msg, &er).
		Br(func() bool { return er != tkernel.EOK }, "end").
		Work(core.Cost{Time: 80 * sysc.Us, Energy: 4 * petri.MicroJ}, "key-handle").
		Atom(func() {
			key, _ := msg.Payload.(byte)
			switch key {
			case 2: // up
				a.paddle = 1
			case 8: // down
				a.paddle = 0
			}
		}).
		Jump("loop").
		Label("end")
}

// ssdProgram is T3: update the score display whenever the score semaphore
// is signalled (by T1 scoring or H2 bonuses).
func (a *App) ssdProgram(k *tkernel.Kernel) *tkernel.Program {
	var (
		er    tkernel.ER
		total int
	)
	ssd, ser := a.B.Ports[1], a.B.Serial
	sel, wr, send := ssd.SelectCharge(), ssd.WriteCharge(), ser.SendCharge()
	return k.NewProgram("T3.ssd").
		Label("loop").
		WaiSem(&a.scoreSem, 1, tkernel.TmoFevr, &er).
		Br(func() bool { return er != tkernel.EOK }, "end").
		Work(core.Cost{Time: 60 * sysc.Us, Energy: 3 * petri.MicroJ}, "score-update").
		// Latch the total once: T1 and H2 may bump it during the writes.
		Atom(func() { total = a.score + a.bonus }).
		Access(sel.Cost, sel.Note, func() { ssd.SelectEffect(1) }).
		Access(wr.Cost, wr.Note, func() { ssd.WriteEffect(byte(0x00 | (total/1000)%10)) }).
		Access(wr.Cost, wr.Note, func() { ssd.WriteEffect(byte(0x10 | (total/100)%10)) }).
		Access(wr.Cost, wr.Note, func() { ssd.WriteEffect(byte(0x20 | (total/10)%10)) }).
		Access(wr.Cost, wr.Note, func() { ssd.WriteEffect(byte(0x30 | total%10)) }).
		// Report the score over the serial channel (waveform traffic;
		// transmission completion raises the serial ISR).
		Access(send.Cost, send.Note, func() { ser.SendEffect(byte(total)) }).
		Jump("loop").
		Label("end")
}

// idleProgram is T4: the lowest-priority task burning idle cycles (its
// share in the time/energy distribution shows the CPU headroom, Figure 7).
// With IdleSleep set it blocks in tk_dly_tsk instead, leaving the CPU
// genuinely idle between events.
func (a *App) idleProgram(k *tkernel.Kernel) *tkernel.Program {
	p := k.NewProgram("T4.idle")
	if a.cfg.IdleSleep > 0 {
		var er tkernel.ER
		return p.Label("loop").
			DlyTsk(a.cfg.IdleSleep, &er).
			Br(func() bool { return er != tkernel.EOK }, "end").
			Jump("loop").
			Label("end")
	}
	return p.Label("loop").
		Work(a.cfg.IdleSlice, "idle").
		Jump("loop")
}

// Run simulates d of system time and returns the simulator error, if any.
func (a *App) Run(d sysc.Time) error { return a.Sim.Start(d) }

// RunContext runs like Run but observes ctx at every quiescent point: a
// cancelled or expired context stops the simulation at the next stable
// instant and its error is returned (the server's job-cancellation path).
func (a *App) RunContext(ctx context.Context, d sysc.Time) error {
	return a.Sim.StartContext(ctx, d)
}

// Shutdown reclaims the simulation processes.
func (a *App) Shutdown() { a.Sim.Shutdown() }

// Score returns the paddle-hit score.
func (a *App) Score() int { return a.score }

// Bonus returns the alarm-awarded bonus count.
func (a *App) Bonus() int { return a.bonus }

// Frames returns the number of frames T1 rendered.
func (a *App) Frames() uint64 { return a.frames }
