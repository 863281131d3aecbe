package bfm_test

import (
	"testing"

	"repro/internal/bfm"
	"repro/internal/sysc"
	"repro/internal/tkernel"
)

// TestCompiledPortWriteZeroAlloc: a port write expressed as a Program
// Access op — charge stepped by the machine, then the uncharged effect —
// reaches no allocator in steady state. The notes and the probe name are
// built once with the port, and the effect closure once with the program.
func TestCompiledPortWriteZeroAlloc(t *testing.T) {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	b := bfm.New(sim, nil, bfm.DefaultConfig())
	k := tkernel.New(sim, tkernel.Config{Costs: tkernel.ZeroCosts()})
	b.SetAPI(k.API())
	p := b.Ports[1]
	wr := p.WriteCharge()
	k.Boot(func(k *tkernel.Kernel) {
		id, _ := k.CreTskProg("writer", 10, k.NewProgram("writer").
			Label("loop").
			Access(wr.Cost, wr.Note, func() { p.WriteEffect(0x55) }).
			Jump("loop"))
		_ = k.StaTsk(id)
	})
	window := 100 * sysc.Us
	horizon := 5 * window
	if err := sim.Start(horizon); err != nil { // boot and warm up
		t.Fatal(err)
	}
	before := p.Writes()
	allocs := testing.AllocsPerRun(20, func() {
		horizon += window
		if err := sim.Start(horizon); err != nil {
			t.Fatal(err)
		}
	})
	if p.Writes() == before {
		t.Fatal("no port writes in the measured windows")
	}
	if allocs != 0 {
		t.Fatalf("steady-state compiled port writes allocate %.1f times per %v window", allocs, window)
	}
}
