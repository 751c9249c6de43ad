package popcache

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sim"
)

// testObserver returns an observer whose run counter and progress totals
// the test reads back.
func testObserver() (*obs.Observer, *obs.Registry) {
	reg := obs.NewRegistry()
	return &obs.Observer{Metrics: reg, Progress: obs.NewProgress(io.Discard, "runs", 0)}, reg
}

// waitSignal is a context that announces the first call to Done — the
// point where a request waits on a flight it joined.
type waitSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitSignal(ctx context.Context) *waitSignal {
	return &waitSignal{Context: ctx, waiting: make(chan struct{})}
}

func (c *waitSignal) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// blockedCoord returns a coordinator whose one worker cannot be dialed:
// every dial blocks until release is closed and then fails, so a job
// falls back to in-process chunks once the worker is abandoned. dialing
// is closed when the first dial starts, i.e. while the first job's
// leader is inside its flight.
func blockedCoord() (c *dist.Coordinator, dialing, release chan struct{}) {
	dialing, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	c = &dist.Coordinator{Workers: []string{"unreachable.invalid:1"},
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			once.Do(func() { close(dialing) })
			<-release
			return nil, errors.New("connection refused")
		}}
	return c, dialing, release
}

type result struct {
	pop *population.Population
	hit bool
	err error
}

func request(ctx context.Context, src *Source, k Key) <-chan result {
	out := make(chan result, 1)
	go func() {
		pop, hit, err := src.Population(ctx, k)
		out <- result{pop, hit, err}
	}()
	return out
}

func TestSourceSingleFlight(t *testing.T) {
	k := testKey()
	o, reg := testObserver()
	src := &Source{Cache: New("", 0), Obs: o}
	const callers = 8
	results := make([]<-chan result, callers)
	for i := range results {
		results[i] = request(context.Background(), src, k)
	}
	var first *population.Population
	generated := 0
	for i, ch := range results {
		r := <-ch
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if first == nil {
			first = r.pop
		}
		if r.pop != first {
			t.Errorf("caller %d got its own copy of the population", i)
		}
		if !r.hit {
			generated++
		}
	}
	if generated != 1 {
		t.Errorf("%d callers generated the recipe, want 1", generated)
	}
	if got := reg.Counter(obs.MetricRunsCompleted).Value(); got != int64(k.Runs) {
		t.Errorf("%s = %d, want %d", obs.MetricRunsCompleted, got, k.Runs)
	}
	if _, total := o.P().Counts(); total != int64(k.Runs) {
		t.Errorf("progress total %d, want %d", total, k.Runs)
	}
	if !bytes.Equal(popBytes(t, first), popBytes(t, generate(t, k))) {
		t.Error("shared population differs from GenerateHooked")
	}
}

// TestSourceLeaderCancelled: the leader's cancellation fails the leader
// alone; a request waiting on its flight leads a fresh one and returns
// the same bytes an uncancelled generation would.
func TestSourceLeaderCancelled(t *testing.T) {
	k := testKey()
	coord, dialing, release := blockedCoord()
	c := New("", 0)
	src := &Source{Cache: c, Coord: coord}
	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := request(leaderCtx, src, k)
	<-dialing
	waiterCtx := newWaitSignal(context.Background())
	waiter := request(waiterCtx, src, k)
	<-waiterCtx.waiting
	cancel()
	close(release)
	if r := <-leader; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", r.err)
	}
	r := <-waiter
	if r.err != nil {
		t.Fatalf("waiter failed with its cancelled leader: %v", r.err)
	}
	if !bytes.Equal(popBytes(t, r.pop), popBytes(t, generate(t, k))) {
		t.Error("waiter's population differs from GenerateHooked")
	}
	if s := c.Stats(); s.Misses != 2 || s.Puts != 1 {
		t.Errorf("cache stats %+v, want one lookup per request and one put", s)
	}
}

// blockingWriter holds the first write (a leader's "simulating" log line)
// until release is closed, announcing it on writing; later writes pass.
type blockingWriter struct {
	once             sync.Once
	writing, release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.writing)
		<-w.release
	})
	return len(p), nil
}

// TestSourceInProcessLeaderCancelled is TestSourceLeaderCancelled without
// a coordinator: an in-process leader cancelled inside its flight
// simulates nothing and abandons the flight, and its waiter leads a fresh
// one to the same bytes.
func TestSourceInProcessLeaderCancelled(t *testing.T) {
	k := testKey()
	log := &blockingWriter{writing: make(chan struct{}), release: make(chan struct{})}
	reg := obs.NewRegistry()
	c := New("", 0)
	src := &Source{Cache: c, Obs: &obs.Observer{Metrics: reg, Progress: obs.NewProgress(log, "runs", 0)}}
	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := request(leaderCtx, src, k)
	<-log.writing
	waiterCtx := newWaitSignal(context.Background())
	waiter := request(waiterCtx, src, k)
	<-waiterCtx.waiting
	cancel()
	close(log.release)
	if r := <-leader; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", r.err)
	}
	r := <-waiter
	if r.err != nil {
		t.Fatalf("waiter failed with its cancelled leader: %v", r.err)
	}
	if !bytes.Equal(popBytes(t, r.pop), popBytes(t, generate(t, k))) {
		t.Error("waiter's population differs from GenerateHooked")
	}
	if s := c.Stats(); s.Misses != 2 || s.Puts != 1 {
		t.Errorf("cache stats %+v, want one lookup per request and one put", s)
	}
	if got := reg.Counter(obs.MetricRunsStarted).Value(); got != int64(k.Runs) {
		t.Errorf("%d runs started, want only the waiter's %d", got, k.Runs)
	}
}

// TestSourceWaiterCancelled: a waiter whose own context is cancelled
// returns at once, while its leader is still blocked, and the leader
// finishes unaffected.
func TestSourceWaiterCancelled(t *testing.T) {
	k := testKey()
	coord, dialing, release := blockedCoord()
	src := &Source{Cache: New("", 0), Coord: coord}
	leader := request(context.Background(), src, k)
	<-dialing
	ctx, cancel := context.WithCancel(context.Background())
	waiterCtx := newWaitSignal(ctx)
	waiter := request(waiterCtx, src, k)
	<-waiterCtx.waiting
	cancel()
	// The leader cannot finish before release is closed, so the waiter
	// can only return here by giving up on its own.
	if r := <-waiter; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", r.err)
	}
	close(release)
	if r := <-leader; r.err != nil {
		t.Fatalf("leader failed with its waiter: %v", r.err)
	}
}

func TestSourceFailedGenerationNotCached(t *testing.T) {
	k := testKey()
	k.Benchmark = "no-such-benchmark"
	c := New("", 0)
	src := &Source{Cache: c}
	for i := 0; i < 2; i++ {
		if _, _, err := src.Population(context.Background(), k); err == nil {
			t.Fatalf("request %d for an unknown benchmark succeeded", i)
		}
	}
	if s := c.Stats(); s.Puts != 0 || s.Misses != 2 {
		t.Errorf("cache stats %+v: a failure was cached or a retry was served", s)
	}
}

// TestSourcePilotUnobserved: a pilot block fires no run hooks and adds no
// progress total, yet caches the full population of its recipe, which a
// later plain request is served byte-identically.
func TestSourcePilotUnobserved(t *testing.T) {
	k := testKey()
	o, reg := testObserver()
	src := &Source{Cache: New("", 0), Obs: o}
	recipe := Key{Benchmark: k.Benchmark, Config: k.Config, Scale: k.Scale}
	vals, err := src.Pilot(context.Background(), recipe, sim.MetricRuntime)(k.BaseSeed, k.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.MetricRunsCompleted).Value(); got != 0 {
		t.Errorf("pilot counted %d campaign runs", got)
	}
	if _, total := o.P().Counts(); total != 0 {
		t.Errorf("pilot added %d to the progress total", total)
	}
	pop, hit, err := src.Population(context.Background(), k)
	if err != nil || !hit {
		t.Fatalf("plain request after the pilot = (hit=%v, err=%v), want a hit", hit, err)
	}
	want := generate(t, k)
	if !bytes.Equal(popBytes(t, pop), popBytes(t, want)) {
		t.Error("cached pilot block is not the full population of its recipe")
	}
	for i, v := range want.Metrics[sim.MetricRuntime] {
		if vals[i] != v {
			t.Fatalf("pilot value %d = %v, want %v", i, vals[i], v)
		}
	}
}

// TestSourceLeadersShareOneExecutor: concurrent in-process leaders of
// distinct recipes run on the Source's one executor, so the runs in
// flight that the Source's observer counts never exceed Parallelism.
func TestSourceLeadersShareOneExecutor(t *testing.T) {
	o, reg := testObserver()
	src := &Source{Parallelism: 1, Obs: o}
	inflight := reg.Gauge(obs.MetricRunsInflight)
	stop, peak := make(chan struct{}), make(chan float64)
	go func() {
		max := 0.0
		for {
			if v := inflight.Value(); v > max {
				max = v
			}
			select {
			case <-stop:
				peak <- max
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	const leaders = 4
	results := make([]<-chan result, leaders)
	for i := range results {
		k := testKey()
		k.BaseSeed += uint64(i) * 1000
		results[i] = request(context.Background(), src, k)
	}
	for _, ch := range results {
		if r := <-ch; r.err != nil {
			t.Fatal(r.err)
		}
	}
	close(stop)
	if p := <-peak; p > 1 {
		t.Errorf("%d leaders on a Parallelism-1 Source ran %g simulations at once", leaders, p)
	}
	if n := reg.Counter(obs.MetricRunsCompleted).Value(); n != leaders*int64(testKey().Runs) {
		t.Errorf("%d runs completed, want %d", n, leaders*testKey().Runs)
	}
}
