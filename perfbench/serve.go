package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/router"
	"repro/internal/run"
	"repro/internal/server"
	"repro/internal/workload"
)

// serve drives the job service the way rtkserve deploys it: a router over
// two in-process shards with one simulation worker each, reached over
// loopback HTTP through internal/client by a closed loop of nproc (at most
// 2) clients. Ops follow a fixed 20-op pattern: 8 repeat a Spec submitted
// 10 to 40 ops earlier (cache hits, or coalesced followers when the first
// copy is still running), 2 stream trace.json live with ?stream=1, and 10
// submit a new short synthetic Spec. Completion is awaited on the SSE
// event feed. Misses make 60% of ops, so the median op is a miss: the
// median tracks the simulator, the hit half tracks cache and HTTP.
type serve struct {
	seed   uint64
	shards []*server.Server
	ts     *httptest.Server
	c      *client.Client

	next atomic.Int64 // next op index

	mu       sync.Mutex
	first    map[string]firstCopy // Spec JSON -> its first copy, for recent Specs
	distinct int                  // distinct Specs submitted
	samples  map[opKind]sample    // one Spec per kind, re-run in-process by verify
	firstMS  []float64            // traced: submit -> first streamed byte
}

// firstCopy digests the artifacts of a Spec's first copy, served by op i.
type firstCopy struct {
	sum [sha256.Size]byte
	i   int
}

type sample struct {
	spec run.Spec
	sum  [sha256.Size]byte
}

// firstWindow is how many ops a first copy is kept for. Repeats reach back
// at most 40 ops, so older entries are dropped: the benchmark's own memory
// stays flat however many ops a faster fleet completes.
const firstWindow = 256

type opKind int

const (
	kindFresh opKind = iota
	kindRepeat
	kindStream
)

// servePattern is the op mix per 20 ops.
var servePattern = [20]opKind{
	kindFresh, kindRepeat, kindFresh, kindRepeat, kindFresh,
	kindStream, kindFresh, kindRepeat, kindFresh, kindRepeat,
	kindFresh, kindRepeat, kindFresh, kindRepeat, kindFresh,
	kindStream, kindFresh, kindRepeat, kindFresh, kindRepeat,
}

// serveWarmOps is the number of ops set-up runs: five pattern cycles,
// enough for the fleet's connections, job tables and caches to be in use.
const serveWarmOps = 100

// serveOpTimeout fails an op whose job never finishes, instead of letting
// it hold the run past its deadline.
const serveOpTimeout = 30 * time.Second

func serveClients() int { return min(2, runtime.NumCPU()) }

// specFor returns op i's kind and Spec. It depends only on the seed and i.
func (s *serve) specFor(i int) (opKind, run.Spec) {
	kind := servePattern[i%len(servePattern)]
	if kind == kindRepeat {
		rng := rand.New(rand.NewPCG(s.seed, uint64(i)))
		for j := i - 10 - rng.IntN(31); j >= 0; j-- {
			if servePattern[j%len(servePattern)] == kindFresh {
				_, sp := s.specFor(j)
				return kind, sp
			}
		}
		kind = kindFresh
	}
	rng := rand.New(rand.NewPCG(s.seed, uint64(i)))
	gen := workload.GenSpec{
		Tasks:      2 + rng.IntN(5),
		Util:       0.3 + 0.4*rng.Float64(),
		Interrupts: []int{-1, 1}[rng.IntN(2)],
	}
	sp := run.Spec{
		Scenario:  run.ScenarioSynthetic,
		Seed:      rng.Uint64(),
		Dur:       run.Duration(time.Duration(50+10*rng.IntN(6)) * time.Millisecond),
		Synthetic: &run.SyntheticSpec{Gen: &gen},
		Artifacts: []string{run.ArtifactMetrics},
	}
	if kind == kindStream {
		sp.Dur = run.Duration(50 * time.Millisecond)
		sp.Artifacts = []string{run.ArtifactMetrics, run.ArtifactTrace}
		sp.Stream = true
	}
	return kind, sp
}

func (s *serve) setup(seed uint64) (time.Duration, error) {
	s.seed = seed
	s.first = map[string]firstCopy{}
	s.samples = map[opKind]sample{}
	spool := filepath.Join(".bench_build", "perfbench", "spool")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return 0, err
	}
	var shards []router.Shard
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("s%d", i)
		srv := server.New(server.Config{Name: name, Workers: 1, SpoolDir: spool})
		s.shards = append(s.shards, srv)
		shards = append(shards, router.Shard{Name: name, Handler: srv})
	}
	s.ts = httptest.NewServer(router.New(shards, 0))
	s.c = client.New(s.ts.URL)
	s.c.HTTP = s.ts.Client()

	warm := newRecorder()
	for i := 0; i < serveWarmOps; i++ {
		s.op(context.Background(), i, nil, warm)
	}
	s.next.Store(serveWarmOps)
	if warm.firstErr != nil {
		return 0, warm.firstErr
	}
	return 0, nil
}

func (s *serve) reference() string {
	keys := make([]string, 0, len(s.first))
	for k := range s.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%x %s\n", s.first[k].sum, k)
	}
	return b.String()
}

func (s *serve) run(deadline time.Time, tr *tracer, rec *recorder) error {
	var wg sync.WaitGroup
	for c := 0; c < serveClients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s.op(context.Background(), int(s.next.Add(1)-1), tr, rec)
			}
		}()
	}
	wg.Wait()
	return nil
}

// op submits op i's Spec and waits until its artifact bytes are in hand.
func (s *serve) op(ctx context.Context, i int, tr *tracer, rec *recorder) {
	kind, spec := s.specFor(i)
	key, err := json.Marshal(spec)
	if err != nil {
		rec.fail(err)
		return
	}
	ctx, cancel := context.WithTimeout(ctx, serveOpTimeout)
	defer cancel()
	root := tr.begin("serve.op", i, -1)
	t0 := time.Now()
	arts, err := s.exchange(ctx, i, kind, spec, t0, tr, root)
	wall := time.Since(t0)
	tr.end(root)
	if err == nil {
		err = s.check(i, kind, spec, string(key), arts)
	}
	rec.op(wall, spec.Dur.Std().Seconds(), err)
}

// exchange is one op's client-side traffic: submit, live trace download
// for streamed Specs, completion on the event feed unless the submission
// was answered from cache, then the metrics artifact.
func (s *serve) exchange(ctx context.Context, i int, kind opKind, spec run.Spec, t0 time.Time, tr *tracer, root int) (map[string][]byte, error) {
	arts := map[string][]byte{}
	sp := tr.begin("client.Submit", i, root)
	v, err := s.c.Submit(ctx, spec)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if kind == kindStream {
		sp := tr.begin("client.StreamArtifact", i, root)
		b, firstByte, err := s.readStream(ctx, v.ID)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		arts[run.ArtifactTrace] = b
		if tr != nil {
			s.mu.Lock()
			s.firstMS = append(s.firstMS, ms(firstByte.Sub(t0)))
			s.mu.Unlock()
		}
	}
	if v.State != server.StateDone {
		sp := tr.begin("client.Events", i, root)
		st, err := s.await(ctx, v.ID)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if st != server.StateDone {
			return nil, fmt.Errorf("job %s ended %s", v.ID, st)
		}
	}
	sp = tr.begin("client.Artifact", i, root)
	b, err := s.c.Artifact(ctx, v.ID, run.ArtifactMetrics)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	arts[run.ArtifactMetrics] = b
	return arts, nil
}

// readStream downloads a live artifact stream whole, returning when the
// first byte arrived.
func (s *serve) readStream(ctx context.Context, id string) ([]byte, time.Time, error) {
	rc, err := s.c.StreamArtifact(ctx, id, run.ArtifactTrace)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer rc.Close()
	var out []byte
	var first time.Time
	buf := make([]byte, 32<<10)
	for {
		n, err := rc.Read(buf)
		if n > 0 {
			if first.IsZero() {
				first = time.Now()
			}
			out = append(out, buf[:n]...)
		}
		if errors.Is(err, io.EOF) {
			return out, first, nil
		}
		if err != nil {
			return nil, first, err
		}
	}
}

// await follows the job's SSE feed to its terminal event.
func (s *serve) await(ctx context.Context, id string) (server.State, error) {
	es, err := s.c.Events(ctx, id, 0)
	if err != nil {
		return "", err
	}
	defer es.Close()
	for {
		e, err := es.Next()
		if err != nil {
			return "", fmt.Errorf("events %s: %w", id, err)
		}
		if e.Terminal {
			return e.State, nil
		}
	}
}

func artifactsSum(arts map[string][]byte) [sha256.Size]byte {
	h := sha256.New()
	for _, name := range []string{run.ArtifactMetrics, run.ArtifactTrace} {
		if b, ok := arts[name]; ok {
			fmt.Fprintf(h, "%s %d\n", name, len(b))
			h.Write(b)
		}
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// check holds every copy of a Spec to the bytes of its first copy.
func (s *serve) check(i int, kind opKind, spec run.Spec, key string, arts map[string][]byte) error {
	sum := artifactsSum(arts)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.samples[kind]; !ok && kind != kindRepeat {
		s.samples[kind] = sample{spec, sum}
	}
	if i%firstWindow == 0 {
		for k, f := range s.first {
			if f.i < i-firstWindow {
				delete(s.first, k)
			}
		}
	}
	prev, seen := s.first[key]
	if !seen {
		s.first[key] = firstCopy{sum, i}
		s.distinct++
		return nil
	}
	if prev.sum != sum {
		return fmt.Errorf("spec seed %d: duplicate differs from its first copy", spec.Seed)
	}
	return nil
}

func (s *serve) varz() (router.Varz, error) {
	var v router.Varz
	resp, err := s.c.HTTP.Get(s.ts.URL + "/varz")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// verify checks the fleet-wide invariants after the timed phase: every
// submission was accepted, exactly one simulation ran per distinct Spec,
// no submission failed over, and one sampled Spec of each new kind gives
// the same bytes in-process through run.Execute.
func (s *serve) verify() error {
	v, err := s.varz()
	if err != nil {
		return err
	}
	t := v.Totals
	s.mu.Lock()
	distinct := s.distinct
	samples := s.samples
	s.mu.Unlock()
	subs := int(s.next.Load())
	if int(t.JobsSubmitted) != subs {
		return fmt.Errorf("fleet accepted %d of %d submissions", t.JobsSubmitted, subs)
	}
	if sims := t.JobsSubmitted - t.JobsFromCache - t.JobsCoalesced; int(sims) != distinct {
		return fmt.Errorf("fleet ran %d simulations for %d distinct specs", sims, distinct)
	}
	if t.Failovers != 0 {
		return fmt.Errorf("router failed over %d times", t.Failovers)
	}
	for kind, sm := range samples {
		local := sm.spec
		local.Stream = false
		res, err := run.Execute(context.Background(), local)
		if err != nil {
			return fmt.Errorf("in-process run.Execute: %w", err)
		}
		if artifactsSum(res.Artifacts) != sm.sum {
			return fmt.Errorf("kind %d spec seed %d: served bytes differ from in-process run.Execute", kind, sm.spec.Seed)
		}
	}
	return nil
}

func (s *serve) layers(tr *tracer, m metricSet, tails map[string]tail) {
	adm := tr.durations("client.Submit")
	at := tailOf(adm)
	m.set("server.admission_ms.p50", quantile(adm, 0.5), "ms")
	m.set("server.admission_ms.tail", at.Value, "ms")
	tails["server.admission_ms.tail"] = at
	m.set("server.artifact_get_ms", quantile(tr.durations("client.Artifact"), 0.5), "ms")
	s.mu.Lock()
	m.set("stream.first_byte_ms", median(s.firstMS), "ms")
	s.mu.Unlock()

	v, err := s.varz()
	if err != nil {
		return
	}
	t := v.Totals
	m.set("cache.hit_ratio", float64(t.JobsFromCache)/float64(t.JobsSubmitted), "ratio")
	m.set("cache.coalesced_ratio", float64(t.JobsCoalesced)/float64(t.JobsSubmitted), "ratio")
	m.set("server.rejected", float64(t.JobsRejected), "count")
	m.set("router.failovers", float64(t.Failovers), "count")
	var waitSum, waitMax, jobsMax, jobsSum float64
	for _, sh := range v.Shards {
		waitSum += sh.Pool.QueueWaitAvgMS
		waitMax = max(waitMax, sh.Pool.QueueWaitMaxMS)
		jobsSum += float64(sh.JobsSubmitted)
		jobsMax = max(jobsMax, float64(sh.JobsSubmitted))
	}
	n := float64(len(v.Shards))
	m.set("server.queue_wait_ms.mean", waitSum/n, "ms")
	m.set("server.queue_wait_ms.max", waitMax, "ms")
	m.set("router.shard_skew", jobsMax/(jobsSum/n), "ratio")
}

func (s *serve) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, sh := range s.shards {
		_ = sh.Shutdown(ctx)
	}
}
