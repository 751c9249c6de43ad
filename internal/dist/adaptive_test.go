package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sim"
)

// frameCounter tallies worker→coordinator frame types observed on the
// wire, one line accumulator per connection so interleaved connections
// don't shear each other's lines.
type frameCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func (fc *frameCounter) inc(typ string) {
	fc.mu.Lock()
	if fc.counts == nil {
		fc.counts = make(map[string]int)
	}
	fc.counts[typ]++
	fc.mu.Unlock()
}

func (fc *frameCounter) get(typ string) int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.counts[typ]
}

// countingConn feeds every byte the coordinator reads through a line
// splitter and counts the decoded frame types.
type countingConn struct {
	net.Conn
	fc  *frameCounter
	acc []byte
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.acc = append(c.acc, p[:n]...)
		for {
			i := bytes.IndexByte(c.acc, '\n')
			if i < 0 {
				break
			}
			var f frame
			if json.Unmarshal(c.acc[:i], &f) == nil && f.Type != "" {
				c.fc.inc(f.Type)
			}
			c.acc = c.acc[i+1:]
		}
	}
	return n, err
}

// countingDial wraps the default dialer so every coordinator connection
// reports inbound frame types to fc.
func countingDial(fc *frameCounter) DialFunc {
	return func(network, address string, timeout time.Duration) (net.Conn, error) {
		nc, err := net.DialTimeout(network, address, timeout)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: nc, fc: fc}, nil
	}
}

// TestFleetSendsOneResultFramePerChunk: the protocol's happy path end
// to end — a worker and an adaptive coordinator complete a campaign
// byte-identical to local, and every committed chunk's results arrive
// in its one chunk_done frame, with no result_batch frame (protocol v4's
// streaming) on the wire.
func TestFleetSendsOneResultFramePerChunk(t *testing.T) {
	const runs = 24
	want := localPop(t, runs)
	w := &Worker{Parallelism: 2, pol: policyWith(func(p *policy) { p.heartbeat = 50 * time.Millisecond })}
	fc := &frameCounter{}
	c := fastCoord(startWorkerWith(t, w))
	c.Dial = countingDial(fc)
	got, err := c.GeneratePopulationCtx(context.Background(), testBench, sim.DefaultConfig(), testScale, runs, testSeed, population.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	checkPopEqual(t, got, want)
	n := fc.get(frameChunkDone)
	if chunks := c.Status().ChunksCompleted; n != chunks {
		t.Errorf("%d chunk_done frames for %d committed chunks, want one per chunk", n, chunks)
	}
	if n == 0 || n > runs/2 {
		t.Errorf("%d chunk_done frames for %d runs — chunks are not amortizing frames", n, runs)
	}
	if b := fc.get("result_batch"); b != 0 {
		t.Errorf("%d result_batch frames, want none: results travel in chunk_done", b)
	}
}

// slowConn adds a fixed latency to every read and write — a distant or
// congested link. Unlike injected fault delays it is unconditional and
// deterministic, so the throughput gap between workers is guaranteed.
type slowConn struct {
	net.Conn
	lag time.Duration
}

func (c *slowConn) Read(p []byte) (int, error) {
	time.Sleep(c.lag)
	return c.Conn.Read(p)
}

func (c *slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.lag)
	return c.Conn.Write(p)
}

type slowListener struct {
	net.Listener
	lag time.Duration
}

func (l *slowListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &slowConn{Conn: nc, lag: l.lag}, nil
}

// startLaggedWorker boots a worker of par slots whose every connection
// read and write is delayed by lag (none when lag is zero).
func startLaggedWorker(t *testing.T, par int, lag time.Duration) *Worker {
	t.Helper()
	w := &Worker{Parallelism: par, pol: policyWith(func(p *policy) { p.heartbeat = 20 * time.Millisecond })}
	if lag > 0 {
		w.listen = func(network, address string) (net.Listener, error) {
			ln, err := net.Listen(network, address)
			if err != nil {
				return nil, err
			}
			return &slowListener{Listener: ln, lag: lag}, nil
		}
	}
	startWorkerWith(t, w)
	return w
}

// TestHeterogeneousFleetAdaptive is the scheduling satellite: an 8-slot
// worker and a single-slot worker behind a slow link share a campaign
// under adaptive sizing. The fast worker must serve proportionally more
// runs, no chunk may outlive the wall-time budget by more than 2x (plus
// one run's worth of slack — a run is not preemptible), and the
// assembled population must be byte-identical to a local run.
func TestHeterogeneousFleetAdaptive(t *testing.T) {
	const (
		runs   = 240
		target = 200 * time.Millisecond
	)
	want := localPop(t, runs)

	fast := startLaggedWorker(t, 8, 0)
	slow := startLaggedWorker(t, 1, 8*time.Millisecond)

	trace := &syncBuffer{}
	c := fastCoord(fast.Addr(), slow.Addr())
	c.ChunkTarget = target
	c.Obs = &obs.Observer{Tracer: obs.NewTracer(trace)}
	var runMu sync.Mutex
	var maxRun time.Duration
	h := population.RunHooks{OnRunDone: func(i int, seed uint64, res *sim.Result, err error, elapsed time.Duration) {
		runMu.Lock()
		if elapsed > maxRun {
			maxRun = elapsed
		}
		runMu.Unlock()
	}}
	got, err := c.GeneratePopulationCtx(context.Background(), testBench, sim.DefaultConfig(), testScale, runs, testSeed, h)
	if err != nil {
		t.Fatal(err)
	}
	checkPopEqual(t, got, want)

	fs, ss := fast.Status(), slow.Status()
	if fs.RunsServed+ss.RunsServed != runs {
		t.Fatalf("fleet served %d+%d runs, want %d total", fs.RunsServed, ss.RunsServed, runs)
	}
	if fs.RunsServed < ss.RunsServed*3/2 {
		t.Errorf("8-slot worker served %d runs vs single-slot %d; want at least 1.5x",
			fs.RunsServed, ss.RunsServed)
	}

	// No dispatched chunk may blow the wall-time budget: 2x the target
	// plus the campaign's slowest single run (chunks are carved in whole
	// runs, and a run cannot be preempted mid-flight). The race detector
	// inflates run cost ~10x mid-campaign, invalidating every throughput
	// estimate the sizes were derived from — skip the wall-time check
	// there, keep the sharing and byte-identity ones.
	runMu.Lock()
	budget := 2*target + maxRun
	runMu.Unlock()
	type span struct {
		Kind  string `json:"kind"`
		Name  string `json:"name"`
		DurUS int64  `json:"dur_us"`
		Attrs struct {
			Count int `json:"count"`
		} `json:"attrs"`
	}
	chunks := 0
	for _, line := range bytes.Split(trace.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var sp span
		if err := json.Unmarshal(line, &sp); err != nil {
			t.Fatalf("bad trace line %s: %v", line, err)
		}
		if sp.Kind != "span" || sp.Name != "dist.chunk" {
			continue
		}
		chunks++
		if d := time.Duration(sp.DurUS) * time.Microsecond; d > budget && !raceEnabled {
			t.Errorf("chunk of %d runs took %v, budget %v (2x %v target + %v slowest run)",
				sp.Attrs.Count, d, budget, target, maxRun)
		}
	}
	if chunks < 2 {
		t.Fatalf("trace recorded %d dispatched chunks, want the fleet sharing work", chunks)
	}
}

// TestAdaptiveStopIndependentOfArrivalOrder: core.AnalyzeToWidthWith
// decides after every round whether to stop, which is optional stopping.
// In distributed SMC the runs that finish first can steer that decision
// (Bulychev et al.). Here one worker lags every frame, so the fast
// worker's runs always report first; because the coordinator commits
// whole chunks by seed offset and core decides on whole rounds, the
// analysis must stop on the same round with the same samples and
// interval as a local run.
func TestAdaptiveStopIndependentOfArrivalOrder(t *testing.T) {
	p := core.Params{F: 0.9, C: 0.9}
	local := core.FuncCollector(localRuntime)
	type round struct {
		n     int
		width float64
	}
	analyze := func(col core.Collector, target float64, maxN int) (*core.Analysis, []round, error) {
		var rounds []round
		a, err := core.AnalyzeToWidthWith(col, p, core.WidthOptions{
			TargetWidth: target, MaxSamples: maxN, BaseSeed: testSeed,
			Hooks: core.Hooks{OnRound: func(n int, w float64) { rounds = append(rounds, round{n, w}) }},
		})
		return a, rounds, err
	}
	// Probe three rounds' widths locally, then target the third round's,
	// so the loop stops on width, not on its budget.
	minN, err := core.CIMinSamples(p)
	if err != nil {
		t.Fatal(err)
	}
	_, probe, err := analyze(local, 1e-12, 3*minN)
	if !errors.Is(err, core.ErrWidthBudget) || len(probe) != 3 {
		t.Fatalf("probe: %d rounds, err %v; want 3 rounds and the budget error", len(probe), err)
	}
	target := probe[2].width
	want, wantRounds, err := analyze(local, target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRounds) < 2 {
		t.Fatalf("local run stopped after %d round(s); the test needs a refinement round", len(wantRounds))
	}

	fast := startLaggedWorker(t, 1, 0)
	slow := startLaggedWorker(t, 1, 2*time.Millisecond)
	c := fastCoord(fast.Addr(), slow.Addr())
	got, gotRounds, err := analyze(c.CollectorCtx(context.Background(), testJob(), sim.MetricRuntime), target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotRounds, wantRounds) {
		t.Errorf("fleet rounds %v, local %v", gotRounds, wantRounds)
	}
	if string(mustJSON(t, got.Samples)) != string(mustJSON(t, want.Samples)) {
		t.Error("fleet samples differ from local")
	}
	if got.Interval != want.Interval {
		t.Errorf("fleet interval %+v, local %+v", got.Interval, want.Interval)
	}
	if slow.Status().RunsServed == 0 {
		t.Error("the lagged worker served no runs: arrival order was never mixed")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for shared trace sinks.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestNextChunkSize pins the sizing policy: rate x ChunkTarget (250ms
// when unset), where the rate is the last committed chunk's throughput,
// seeded by hello parallelism before any commit, and tail-capped to half
// a fair share of what remains.
func TestNextChunkSize(t *testing.T) {
	c := &Coordinator{Workers: []string{"a", "b"}, ChunkTarget: time.Second}
	// No state at all → minimum chunk of 1.
	if got := c.nextChunkSize("a", 1000); got != 1 {
		t.Errorf("no estimate: size %d, want 1", got)
	}
	// hello_ok parallelism seeds the first estimate (~1 run/sec/slot).
	c.noteWorkerHello("a", 6)
	if got := c.nextChunkSize("a", 1000); got != 6 {
		t.Errorf("hello-seeded: size %d, want 6", got)
	}
	// A committed chunk's throughput overrides the seed.
	c.noteWorkerChunk("a", make([]RunResult, 40), time.Second)
	if got := c.nextChunkSize("a", 1000); got != 40 {
		t.Errorf("40 runs committed in 1s x 1s: size %d, want 40", got)
	}
	// Tail cap: never more than half a fair share of pending runs
	// (2 live workers → pending/4, rounded up).
	if got := c.nextChunkSize("a", 30); got != 8 {
		t.Errorf("tail: size %d, want ceil(30/4)=8", got)
	}
	// An unset target is the 250ms default.
	c.ChunkTarget = 0
	if got := c.nextChunkSize("a", 1000); got != 10 {
		t.Errorf("default target: size %d, want 40 rps x 250ms = 10", got)
	}
}
