package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// recorder collects the outcome of the ops of a timed phase. Safe for
// concurrent use.
type recorder struct {
	mu        sync.Mutex
	start     time.Time
	opWall    time.Duration
	simsec    float64
	attempted int
	failed    int
	firstErr  error

	// ops keeps one record per op, in memory mapped outside the Go heap
	// (nil when the recorder keeps totals only). The live heap recorded
	// with each op then holds the program's data and not a store that
	// grows with the number of ops a faster program completes.
	ops   []opRecord
	arena []byte
	live  []metrics.Sample
}

// opRecord is one op: when it ended (since the recorder was made), how
// long it took, the simulated seconds it delivered, whether it passed,
// and the live heap right after it.
type opRecord struct {
	end, wall time.Duration
	simsec    float64
	heap      uint64
	ok        bool
}

// newRecorder returns a recorder that keeps totals only.
func newRecorder() *recorder { return &recorder{start: time.Now()} }

// opsPerSecondCap bounds the ops per second a timed phase can record: far
// above what any workload completes on two CPUs.
const opsPerSecondCap = 50000

// newOpRecorder returns a recorder that also keeps every op of a timed
// phase of length d.
func newOpRecorder(d time.Duration) (*recorder, error) {
	n := int(d.Seconds()+2) * opsPerSecondCap
	size := n * int(unsafe.Sizeof(opRecord{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("op record store: %w", err)
	}
	r := newRecorder()
	r.arena = mem
	r.ops = unsafe.Slice((*opRecord)(unsafe.Pointer(&mem[0])), n)[:0]
	r.live = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	return r, nil
}

// release unmaps the op record store.
func (r *recorder) release() {
	if r.arena != nil {
		r.ops = nil
		_ = syscall.Munmap(r.arena)
		r.arena = nil
	}
}

// op records one op: its wall time, the simulated seconds it delivered
// and its error, nil when it completed and passed its output check.
func (r *recorder) op(wall time.Duration, simsec float64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.opWall += wall
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	} else {
		r.simsec += simsec
	}
	if r.arena == nil {
		return
	}
	if len(r.ops) == cap(r.ops) {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("more than %d ops per second", opsPerSecondCap)
		}
		return
	}
	// The live heap as of the last garbage collection: reading it does
	// not stop the world, so sampling after every op costs little.
	metrics.Read(r.live)
	r.ops = append(r.ops, opRecord{
		end: time.Since(r.start), wall: wall, simsec: simsec,
		heap: r.live[0].Value.Uint64(), ok: err == nil,
	})
}

// fail records a check failure that belongs to no single timed op.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// latencies returns every op's time in milliseconds, sorted ascending.
func (r *recorder) latencies() []float64 {
	out := make([]float64, len(r.ops))
	for i, o := range r.ops {
		out[i] = ms(o.wall)
	}
	sort.Float64s(out)
	return out
}

// rateBlock is the length of time one block covers on average.
const rateBlock = time.Second

// phaseStats summarizes the ops over blocks of consecutive ops: a phase of
// length elapsed is cut into one block per rateBlock, each holding the
// same number of ops. Each result is the median over blocks, so a burst of
// load from elsewhere on the host shifts a block or two rather than the
// reported number:
//   - simPerS and opsPerS: simulated seconds and passed ops per host
//     second. The host seconds of a block are its ops' summed times for a
//     single client, and the time from the end of the previous block to
//     the end of its last op for concurrent clients.
//   - peakHeap: the largest live heap sampled after an op of the block.
func (r *recorder) phaseStats(elapsed time.Duration, concurrent bool) (simPerS, opsPerS, peakHeap float64) {
	nb := max(int(elapsed/rateBlock), 1)
	per := max(len(r.ops)/nb, 1)
	var simRates, opRates, heaps []float64
	var prevEnd time.Duration
	for lo := 0; lo+per <= len(r.ops); lo += per {
		var sim, cnt float64
		var wall time.Duration
		var heap uint64
		for _, o := range r.ops[lo : lo+per] {
			wall += o.wall
			heap = max(heap, o.heap)
			if o.ok {
				sim += o.simsec
				cnt++
			}
		}
		end := r.ops[lo+per-1].end
		if concurrent {
			wall = end - prevEnd
		}
		prevEnd = end
		heaps = append(heaps, float64(heap))
		if wall > 0 {
			simRates = append(simRates, sim/wall.Seconds())
			opRates = append(opRates, cnt/wall.Seconds())
		}
	}
	return median(simRates), median(opRates), median(heaps)
}
