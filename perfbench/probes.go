package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/petri"
	"repro/internal/run"
	"repro/internal/sysc"
	"repro/internal/tkernel"
)

// The probes time one layer each through its public API, outside any
// workload: the same measurements the Go benchmarks in bench_test.go
// (BenchmarkServiceCall, BenchmarkContextSwitch, BenchmarkTThreadConsume)
// and internal/sysc (BenchmarkContextSwitch) take, plus the event bus,
// the Spec codec and the result cache. Each probe reports the median of
// probeBatches batches, in time per operation.

const probeBatches = 5

// perOp times batches of n ops, each batch run by f, and returns the
// median time per op in ns.
func perOp(n int, f func(n int) (time.Duration, error)) (float64, error) {
	var per []float64
	for b := 0; b < probeBatches; b++ {
		d, err := f(n)
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d)/float64(n))
	}
	return median(per), nil
}

func runProbes(seed uint64, m metricSet) error {
	probes := []struct {
		name, unit string
		scale      float64 // ns -> unit
		n          int
		f          func(n int) (time.Duration, error)
	}{
		{"sysc.thread_handoff_ns", "ns", 1, 20000, threadPingPong},
		{"sysc.coro_handoff_ns", "ns", 1, 200000, coroPingPong},
		{"core.consume_ns", "ns", 1, 50000, consumeSlices},
		{"tkernel.svc_call_ns", "ns", 1, 200000, serviceCalls},
		{"tkernel.ctx_switch_ns", "ns", 1, 20000, contextSwitches},
		{"event.publish_ns.subs0", "ns", 1, 1000000, publish(0)},
		{"event.publish_ns.subs1", "ns", 1, 1000000, publish(1)},
		{"event.publish_ns.subs4", "ns", 1, 1000000, publish(4)},
		{"app.build_us", "us", 1e-3, 20, appBuilds},
		{"cache.begin_hit_us", "us", 1e-3, 100000, cacheHits},
	}
	for _, p := range probes {
		v, err := perOp(p.n, p.f)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		m.set(p.name, v*p.scale, p.unit)
	}

	// The Spec codec, over the Spec mix the serve workload submits.
	s := &serve{seed: seed}
	var docs [][]byte
	var specs []run.Spec
	for i := 0; i < 64; i++ {
		_, sp := s.specFor(i)
		b, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		docs, specs = append(docs, b), append(specs, sp)
	}
	codec := []struct {
		name string
		f    func(i int) error
	}{
		{"run.parse_us", func(i int) error { _, err := run.ParseSpec(docs[i%len(docs)]); return err }},
		{"run.validate_us", func(i int) error { return run.Validate(specs[i%len(specs)]) }},
		{"run.canonicalize_hash_us", func(i int) error { _, err := run.Hash(specs[i%len(specs)]); return err }},
	}
	for _, c := range codec {
		v, err := perOp(20000, func(n int) (time.Duration, error) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := c.f(i); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		m.set(c.name, v/1e3, "us")
	}
	return nil
}

// threadPingPong: two goroutine-backed sysc threads hand control back and
// forth through delta notifications; one op is one round (two handoffs),
// as in internal/sysc BenchmarkContextSwitch.
func threadPingPong(n int) (time.Duration, error) {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	ping, pong := sim.NewEvent("ping"), sim.NewEvent("pong")
	sim.Spawn("A", func(th *sysc.Thread) {
		for {
			ping.NotifyDelta()
			th.WaitEvent(pong)
		}
	})
	rounds := 0
	sim.Spawn("B", func(th *sysc.Thread) {
		for {
			th.WaitEvent(ping)
			if rounds++; rounds >= n {
				sim.Stop()
				return
			}
			pong.NotifyDelta()
		}
	})
	t0 := time.Now()
	err := sim.Run()
	return time.Since(t0), err
}

// coroPingPong is threadPingPong on continuation processes.
func coroPingPong(n int) (time.Duration, error) {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	ping, pong := sim.NewEvent("ping"), sim.NewEvent("pong")
	sim.SpawnCoro("A", func(c *sysc.Coro) {
		ping.NotifyDelta()
		c.WaitEvent(pong)
	})
	rounds := 0
	sim.SpawnCoro("B", func(c *sysc.Coro) {
		if c.Fired() == nil {
			c.WaitEvent(ping)
			return
		}
		if rounds++; rounds >= n {
			sim.Stop()
			return
		}
		pong.NotifyDelta()
		c.WaitEvent(ping)
	})
	t0 := time.Now()
	err := sim.Run()
	return time.Since(t0), err
}

// consumeSlices: one task charging 10 µs annotated slices back to back;
// one op is one slice.
func consumeSlices(n int) (time.Duration, error) {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	k := tkernel.New(sim, tkernel.Config{Costs: tkernel.ZeroCosts()})
	slices := 0
	k.Boot(func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("t", 10, func(*tkernel.Task) {
			for {
				k.Work(core.Cost{Time: 10 * sysc.Us, Energy: petri.NanoJ}, "")
				slices++
			}
		})
		_ = k.StaTsk(id)
	})
	if err := sim.Start(sysc.Ms); err != nil {
		return 0, err
	}
	start := slices
	t0 := time.Now()
	horizon := sysc.Ms
	for slices-start < n {
		horizon += 10 * sysc.Ms
		if err := sim.Start(horizon); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) * time.Duration(n) / time.Duration(slices-start), nil
}

// serviceCalls: tk_sig_sem with no waiter, called from outside any task.
func serviceCalls(n int) (time.Duration, error) {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	k := tkernel.New(sim, tkernel.Config{Costs: tkernel.ZeroCosts()})
	var sem tkernel.ID
	k.Boot(func(k *tkernel.Kernel) {
		sem, _ = k.CreSem("s", tkernel.TaTFIFO, 0, 1<<30)
	})
	if err := sim.Start(10 * sysc.Ms); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if er := k.SigSem(sem, 1); er != tkernel.EOK {
			return 0, fmt.Errorf("tk_sig_sem: %v", er)
		}
	}
	return time.Since(t0), nil
}

// contextSwitches: two equal-priority tasks waking each other through
// tk_wup_tsk / tk_slp_tsk, each carrying 1 µs of annotated work; one op is
// one counted context switch.
func contextSwitches(n int) (time.Duration, error) {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	k := tkernel.New(sim, tkernel.Config{Costs: tkernel.ZeroCosts()})
	var a, b tkernel.ID
	body := func(peer *tkernel.ID) func(*tkernel.Task) {
		return func(*tkernel.Task) {
			for {
				k.Work(core.Cost{Time: sysc.Us}, "")
				_ = k.WupTsk(*peer)
				if k.SlpTsk(tkernel.TmoFevr) != tkernel.EOK {
					return
				}
			}
		}
	}
	k.Boot(func(k *tkernel.Kernel) {
		a, _ = k.CreTsk("a", 10, body(&b))
		b, _ = k.CreTsk("b", 10, body(&a))
		_ = k.StaTsk(a)
		_ = k.StaTsk(b)
	})
	if err := sim.Start(sysc.Ms); err != nil {
		return 0, err
	}
	sw0 := k.API().ContextSwitches()
	t0 := time.Now()
	horizon := sysc.Ms
	for k.API().ContextSwitches()-sw0 < uint64(n) {
		horizon += 2 * sysc.Ms
		if err := sim.Start(horizon); err != nil {
			return 0, err
		}
	}
	d := time.Since(t0)
	return d * time.Duration(n) / time.Duration(k.API().ContextSwitches()-sw0), nil
}

// publish returns a probe publishing run-slice events into a bus with subs
// subscribers.
func publish(subs int) func(n int) (time.Duration, error) {
	return func(n int) (time.Duration, error) {
		bus := event.NewBus()
		seen := 0
		for i := 0; i < subs; i++ {
			bus.Subscribe(func(event.Event) { seen++ }, event.KindRunSlice)
		}
		e := event.Event{Kind: event.KindRunSlice, Thread: "t", Obj: "work", Time: sysc.Us}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			e.Seq = uint64(i)
			bus.Publish(e)
		}
		d := time.Since(t0)
		if seen != subs*n {
			return 0, fmt.Errorf("delivered %d events, want %d", seen, subs*n)
		}
		return d, nil
	}
}

// appBuilds: app.Build of the case study's default configuration.
func appBuilds(n int) (time.Duration, error) {
	var d time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		a := app.Build(app.DefaultConfig())
		d += time.Since(t0)
		a.Shutdown()
	}
	return d, nil
}

// cacheHits: cache.Begin on a key whose result is cached.
func cacheHits(n int) (time.Duration, error) {
	c := cache.New(cache.Config{})
	res := run.Result{Artifacts: map[string][]byte{run.ArtifactMetrics: make([]byte, 2048)}}
	c.Put("k", res)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, f, _ := c.Begin("k"); f != nil {
			return 0, fmt.Errorf("cache.Begin missed a cached key")
		}
	}
	return time.Since(t0), nil
}
