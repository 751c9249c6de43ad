package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sim"
	"repro/internal/workload"
)

// startWorker boots a real worker on a loopback port and tears it down
// with the test.
func startWorker(t *testing.T) *Worker {
	t.Helper()
	w := &Worker{Parallelism: 2, pol: policyWith(func(p *policy) { p.heartbeat = 50 * time.Millisecond })}
	if err := w.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Serve() }()
	t.Cleanup(func() {
		w.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("worker did not stop")
		}
	})
	return w
}

// policyWith returns a copy of defaultPolicy edited by set: the one way
// tests shorten the transport policy.
func policyWith(set func(p *policy)) *policy {
	p := defaultPolicy
	set(&p)
	return &p
}

// fastCoord returns a coordinator tuned for test-speed failure handling.
// Its policy is its own copy, so a test may edit c.pol further.
func fastCoord(workers ...string) *Coordinator {
	return &Coordinator{Workers: workers, pol: policyWith(func(p *policy) {
		p.chunkTimeout = 10 * time.Second
		p.readTimeout = 2 * time.Second
		p.dialTimeout = time.Second
		p.backoffBase = time.Millisecond
		p.backoffMax = 10 * time.Millisecond
	})}
}

const (
	testBench = "swaptions"
	testScale = 0.05
	testSeed  = uint64(42)
)

func testJob() Job {
	return Job{Benchmark: testBench, Config: sim.DefaultConfig(), Scale: testScale}
}

// localPop is the reference every distributed run must match.
func localPop(t *testing.T, runs int) *population.Population {
	t.Helper()
	p, err := population.Generate(testBench, sim.DefaultConfig(), testScale, runs, testSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// localRuntime simulates one run in-process and returns its runtime:
// the reference for every distributed collection of testJob's runtime.
func localRuntime(seed uint64) (float64, error) {
	res, err := sim.Run(testBench, sim.DefaultConfig(), testScale, seed)
	if err != nil {
		return 0, err
	}
	return res.Metrics[sim.MetricRuntime], nil
}

// mustJSON pins byte-identity, the subsystem's core guarantee.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkPopEqual(t *testing.T, got, want *population.Population) {
	t.Helper()
	g, w := mustJSON(t, got), mustJSON(t, want)
	if string(g) != string(w) {
		t.Errorf("distributed population differs from local:\n got %s\nwant %s", g, w)
	}
}

func TestNoWorkersRunsLocally(t *testing.T) {
	c := fastCoord() // zero workers: a purely local runner
	results, err := c.RunCtx(context.Background(), testJob(), testSeed, 8, population.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d results, want 8", len(results))
	}
	for i, r := range results {
		if r.Offset != i {
			t.Fatalf("result %d has offset %d; want seed order", i, r.Offset)
		}
		res, err := sim.Run(testBench, sim.DefaultConfig(), testScale, testSeed+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if r.Metrics[sim.MetricRuntime] != res.Metrics[sim.MetricRuntime] {
			t.Errorf("offset %d: runtime %g != local %g", i, r.Metrics[sim.MetricRuntime], res.Metrics[sim.MetricRuntime])
		}
	}
}

func TestWorkerCountsByteIdentical(t *testing.T) {
	const runs = 12
	want := localPop(t, runs)
	for _, nw := range []int{1, 2, 4} {
		addrs := make([]string, nw)
		for i := range addrs {
			addrs[i] = startWorker(t).Addr()
		}
		c := fastCoord(addrs...)
		got, err := c.GeneratePopulationCtx(context.Background(), testBench, sim.DefaultConfig(), testScale, runs, testSeed, population.RunHooks{})
		if err != nil {
			t.Fatalf("%d workers: %v", nw, err)
		}
		checkPopEqual(t, got, want)
	}
}

func TestRunRejectsBadJobs(t *testing.T) {
	c := fastCoord()
	if _, err := c.RunCtx(context.Background(), testJob(), testSeed, 0, population.RunHooks{}); err == nil {
		t.Error("zero runs should error")
	}
	_, err := c.RunCtx(context.Background(), testJob(), testSeed, population.MaxRuns+1, population.RunHooks{})
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(population.MaxRuns)) {
		t.Errorf("MaxRuns+1 runs: err = %v, want one naming the bound %d", err, population.MaxRuns)
	}
	if _, err := c.RunCtx(context.Background(), Job{Config: sim.DefaultConfig()}, testSeed, 4, population.RunHooks{}); err == nil {
		t.Error("missing benchmark should error")
	}
	bad := testJob()
	bad.Config.Cores = -1
	if _, err := c.RunCtx(context.Background(), bad, testSeed, 4, population.RunHooks{}); err == nil {
		t.Error("invalid config should error")
	}
	for _, scale := range []float64{0, -1, workload.MaxScale + 1, math.NaN(), math.Inf(1)} {
		job := testJob()
		job.Scale = scale
		if _, err := c.RunCtx(context.Background(), job, testSeed, 4, population.RunHooks{}); err == nil {
			t.Errorf("scale %v should error", scale)
		}
	}
}

func TestExecErrorAbortsJob(t *testing.T) {
	w := startWorker(t)
	for name, c := range map[string]*Coordinator{
		"remote": fastCoord(w.Addr()),
		"local":  fastCoord(),
	} {
		job := testJob()
		job.Benchmark = "no-such-benchmark"
		_, err := c.RunCtx(context.Background(), job, testSeed, 4, population.RunHooks{})
		if err == nil {
			t.Fatalf("%s: unknown benchmark should abort the job", name)
		}
		if !strings.Contains(err.Error(), "no-such-benchmark") {
			t.Errorf("%s: error should name the benchmark: %v", name, err)
		}
	}
}

func TestUnreachableWorkerFallsBackLocal(t *testing.T) {
	// A bound-then-closed listener yields a port that refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	reg := obs.NewRegistry()
	c := fastCoord(addr)
	c.pol.maxFailures = 2
	c.Obs = &obs.Observer{Metrics: reg}
	got, err := c.GeneratePopulationCtx(context.Background(), testBench, sim.DefaultConfig(), testScale, 8, testSeed, population.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	checkPopEqual(t, got, localPop(t, 8))
	if v := reg.Counter(obs.MetricDistLocalChunks).Value(); v == 0 {
		t.Error("local fallback counter never incremented")
	}
	if v := reg.Counter(obs.MetricDistWorkersDead).Value(); v == 0 {
		t.Error("dead-worker counter never incremented")
	}
}

// fakeWorker serves scripted protocol conversations for failure-mode
// tests. Each accepted connection is handed to handle; when handle
// returns, the connection closes.
type fakeWorker struct {
	ln      net.Listener
	wg      sync.WaitGroup
	accepts atomic.Int64 // connections accepted: the coordinator's dials
}

func startFakeWorker(t *testing.T, handle func(c *conn)) *fakeWorker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeWorker{ln: ln}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			f.accepts.Add(1)
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				c := newConn(nc, 0)
				defer c.close()
				handle(c)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		f.wg.Wait()
	})
	return f
}

func (f *fakeWorker) addr() string { return f.ln.Addr().String() }

// fakeParallelism is the slot count fake workers advertise at hello: it
// sizes their first chunk, at about one run per slot-second of
// ChunkTarget — so several runs each.
const fakeParallelism = 16

// answerHello consumes the hello frame and accepts it.
func answerHello(t *testing.T, c *conn) bool {
	f, err := c.recv(time.Now().Add(5 * time.Second))
	if err != nil || f.Type != frameHello {
		return false
	}
	return c.send(frame{Type: frameHelloOK, Version: ProtocolVersion, Parallelism: fakeParallelism}) == nil
}

func TestOutOfOrderResultsCommitInSeedOrder(t *testing.T) {
	// A worker that answers each chunk with one chunk_done whose offsets
	// run in reverse order: legal under the protocol, and must not
	// perturb the returned sample order.
	var multiRun atomic.Bool
	fake := startFakeWorker(t, func(c *conn) {
		if !answerHello(t, c) {
			return
		}
		for {
			req, err := c.recv(time.Now().Add(5 * time.Second))
			if err != nil || req.Type != frameRunChunk {
				return
			}
			if req.Count > 1 {
				multiRun.Store(true)
			}
			rb := &ResultBatch{}
			for i := req.Count - 1; i >= 0; i-- {
				off := req.Start + i
				res, err := sim.Run(req.Benchmark, *req.Config, req.Scale, req.BaseSeed+uint64(off))
				if err != nil {
					c.send(frame{Type: frameError, ID: req.ID, Error: err.Error()})
					return
				}
				rb.add(off, res.Metrics, res.Cycles, 0)
			}
			if c.send(frame{Type: frameChunkDone, ID: req.ID, Batch: rb}) != nil {
				return
			}
		}
	})

	c := fastCoord(fake.addr())
	got, err := c.GeneratePopulationCtx(context.Background(), testBench, sim.DefaultConfig(), testScale, 10, testSeed, population.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	checkPopEqual(t, got, localPop(t, 10))
	if !multiRun.Load() {
		t.Error("every chunk held one run: reverse order was never exercised")
	}
}

func TestWorkerDeathMidChunkRedispatches(t *testing.T) {
	// The dying worker answers every chunk with a chunk_done one run
	// short, holding poison values, and drops the connection. The short
	// chunk must never commit, the chunks must be re-dispatched, and the
	// healthy worker must finish the job with local-identical samples.
	dying := startFakeWorker(t, func(c *conn) {
		if !answerHello(t, c) {
			return
		}
		req, err := c.recv(time.Now().Add(5 * time.Second))
		if err != nil || req.Type != frameRunChunk {
			return
		}
		rb := &ResultBatch{}
		for i := 0; i < req.Count-1; i++ {
			rb.add(req.Start+i, map[string]float64{sim.MetricRuntime: -12345}, 0, 0) // poison: must never commit
		}
		c.send(frame{Type: frameChunkDone, ID: req.ID, Batch: rb})
		// close after the short chunk_done: mid-chunk death
	})
	healthy := startWorker(t)

	reg := obs.NewRegistry()
	c := fastCoord(dying.addr(), healthy.Addr())
	c.pol.maxFailures = 2
	c.Obs = &obs.Observer{Metrics: reg}
	got, err := c.GeneratePopulationCtx(context.Background(), testBench, sim.DefaultConfig(), testScale, 12, testSeed, population.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	checkPopEqual(t, got, localPop(t, 12))
	for _, s := range got.Metrics[sim.MetricRuntime] {
		if s == -12345 {
			t.Fatal("poison sample from the dying worker was committed")
		}
	}
	if v := reg.Counter(obs.MetricDistRedispatches).Value(); v == 0 {
		t.Error("mid-chunk death never triggered a re-dispatch")
	}
	if v := reg.Counter(obs.MetricDistWorkersDead).Value(); v == 0 {
		t.Error("repeatedly dying worker was never declared dead")
	}
}

func TestSlowWorkerDuplicateCommitDiscarded(t *testing.T) {
	// A worker that answers hello and then goes silent: the read deadline
	// trips, the chunk re-dispatches to the healthy worker, and the job
	// still completes with exactly one commit per chunk.
	silent := startFakeWorker(t, func(c *conn) {
		if !answerHello(t, c) {
			return
		}
		// Accept the chunk but never respond; the next recv blocks until
		// the coordinator gives up on us and closes the connection.
		if req, err := c.recv(time.Now().Add(5 * time.Second)); err != nil || req.Type != frameRunChunk {
			return
		}
		c.recv(time.Now().Add(30 * time.Second))
	})
	healthy := startWorker(t)

	c := fastCoord(silent.addr(), healthy.Addr())
	c.pol.readTimeout = 300 * time.Millisecond
	c.pol.maxFailures = 1
	got, err := c.GeneratePopulationCtx(context.Background(), testBench, sim.DefaultConfig(), testScale, 9, testSeed, population.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	checkPopEqual(t, got, localPop(t, 9))
}

func TestVersionSkewedWorkerAbandonedAtOnce(t *testing.T) {
	// A stale binary answers hello_ok at v2. Redialing cannot cure that,
	// so it gets exactly one dial — not a failure budget of backoff rounds
	// — and the healthy worker finishes the job local-identically.
	stale := startFakeWorker(t, func(c *conn) {
		if f, err := c.recv(time.Now().Add(5 * time.Second)); err == nil && f.Type == frameHello {
			c.send(frame{Type: frameHelloOK, Version: 2, Parallelism: fakeParallelism})
		}
	})
	healthy := startWorker(t)

	reg := obs.NewRegistry()
	trace := &syncBuffer{}
	c := fastCoord(stale.addr(), healthy.Addr())
	c.pol.maxFailures = 5
	c.Obs = &obs.Observer{Metrics: reg, Tracer: obs.NewTracer(trace)}
	got, err := c.GeneratePopulationCtx(context.Background(), testBench, sim.DefaultConfig(), testScale, 12, testSeed, population.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	checkPopEqual(t, got, localPop(t, 12))
	if n := stale.accepts.Load(); n != 1 {
		t.Errorf("version-skewed worker was dialed %d times, want exactly 1", n)
	}
	if v := reg.Counter(obs.MetricDistRetries).Value(); v != 0 {
		t.Errorf("%d dial retries spent on a version-skewed worker, want 0", v)
	}
	// The worker_dead event names both versions.
	var ev struct {
		Attrs struct {
			Worker   string `json:"worker"`
			WorkerV  int    `json:"worker_version"`
			CoordinV int    `json:"coordinator_version"`
		} `json:"attrs"`
	}
	found := false
	for _, line := range bytes.Split(trace.Bytes(), []byte("\n")) {
		if !bytes.Contains(line, []byte(`"dist.worker_dead"`)) {
			continue
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad trace line %s: %v", line, err)
		}
		found = true
		if ev.Attrs.Worker != stale.addr() || ev.Attrs.WorkerV != 2 || ev.Attrs.CoordinV != ProtocolVersion {
			t.Errorf("worker_dead event %s, want worker %s at v2 against v%d", line, stale.addr(), ProtocolVersion)
		}
	}
	if !found {
		t.Error("no dist.worker_dead event for the version-skewed worker")
	}
}

func TestHooksFireOncePerRun(t *testing.T) {
	w := startWorker(t)
	var mu sync.Mutex
	seen := map[int]int{}
	h := population.RunHooks{
		OnRunDone: func(i int, seed uint64, res *sim.Result, err error, elapsed time.Duration) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			if seed != testSeed+uint64(i) {
				t.Errorf("hook for run %d saw seed %d", i, seed)
			}
			if err != nil || res == nil || res.Benchmark != testBench {
				t.Errorf("hook for run %d: res=%v err=%v", i, res, err)
			}
		},
	}
	c := fastCoord(w.Addr())
	if _, err := c.RunCtx(context.Background(), testJob(), testSeed, 7, h); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 7; i++ {
		if seen[i] != 1 {
			t.Errorf("run %d hook fired %d times, want exactly 1", i, seen[i])
		}
	}
}

func TestCollectorMatchesLocalSamples(t *testing.T) {
	w := startWorker(t)
	c := fastCoord(w.Addr())
	got, err := c.CollectorCtx(context.Background(), testJob(), sim.MetricRuntime).Collect(testSeed, 10, 0, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := localPop(t, 10).Metrics[sim.MetricRuntime]
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("sample %d: %g != %g", i, got[i], want[i])
		}
	}
}

func TestCollectorRejectsMissingMetric(t *testing.T) {
	w := startWorker(t)
	c := fastCoord(w.Addr())
	_, err := c.CollectorCtx(context.Background(), testJob(), "no-such-metric").Collect(testSeed, 4, 0, core.Hooks{})
	if err == nil || !strings.Contains(err.Error(), "no-such-metric") {
		t.Errorf("missing metric should error by name, got %v", err)
	}
}

func TestAnalyzeWithCoordinatorCollector(t *testing.T) {
	w := startWorker(t)
	c := fastCoord(w.Addr())
	p := core.Params{F: 0.5, C: 0.9}
	opts := core.Options{Samples: 40, BaseSeed: testSeed}

	distA, err := core.AnalyzeWith(c.CollectorCtx(context.Background(), testJob(), sim.MetricRuntime), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	localA, err := core.Analyze(localRuntime, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if string(mustJSON(t, distA.Samples)) != string(mustJSON(t, localA.Samples)) {
		t.Error("distributed analysis samples differ from local")
	}
	if distA.Interval != localA.Interval {
		t.Errorf("intervals differ: %+v vs %+v", distA.Interval, localA.Interval)
	}
}

func TestSplitAddrs(t *testing.T) {
	if got := SplitAddrs(""); got != nil {
		t.Errorf("empty string should yield nil, got %v", got)
	}
	got := SplitAddrs("a:1, b:2,,c:3,")
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("addr %d: %q != %q", i, got[i], want[i])
		}
	}
}

func TestSplitAddrsDedupsRepeats(t *testing.T) {
	// A repeated address would double that worker's share of the
	// failure budget and its connection count; SplitAddrs keeps the
	// first occurrence only.
	got := SplitAddrs("a:1,b:2, a:1,c:3,b:2,a:1")
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("addr %d: %q != %q", i, got[i], want[i])
		}
	}
}
