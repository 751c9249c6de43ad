package dist

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sim"
)

// Job names the deterministic work a campaign farms out: which workload
// to run on which simulated system at which scale. Together with an
// absolute seed a Job fully determines one run's result, which is why
// chunks can be re-dispatched freely.
type Job struct {
	Benchmark string
	Config    sim.Config
	Scale     float64
}

// RunResult is one completed run: its seed offset within the campaign
// and the simulator's scalar metrics. Elapsed is the executing worker's
// wall time (local or remote).
type RunResult struct {
	Offset  int
	Metrics map[string]float64
	Cycles  uint64
	Elapsed time.Duration
}

// Coordinator shards a seed range into contiguous chunks and executes
// them across the configured workers, re-dispatching on failure and
// degrading to in-process execution when no worker is reachable. The
// zero value with no Workers is a purely local runner. A Coordinator is
// safe for concurrent Run calls — the campaign service runs many
// tenants' jobs through one shared instance so fleet telemetry, chunk
// accounting, and the local-fallback parallelism bound accumulate in
// one place; configuration fields must not be mutated once the first
// Run is in flight.
type Coordinator struct {
	// Workers are worker addresses (host:port). Empty means run
	// everything in-process.
	Workers []string
	// ChunkSize is the number of consecutive seeds per in-process chunk
	// (0 = 16): the local path only. Remote chunks are sized for
	// ChunkTarget.
	ChunkSize int
	// ChunkTarget is the wall time each remote chunk is sized to take
	// (0 = 250ms): each worker's next chunk is sized from its observed
	// runs/sec (wire telemetry, seeded by hello_ok parallelism before
	// the first sample), and shrinks near the tail so no single worker
	// strags the job on one oversized final chunk. Scheduling is
	// non-deterministic; assembled results are not — they stay keyed by
	// seed offset.
	ChunkTarget time.Duration
	// ChunkTimeout bounds one chunk's total execution including
	// streaming (0 = 5m). A chunk that exceeds it is re-dispatched.
	ChunkTimeout time.Duration
	// ReadTimeout bounds the silence between frames from a worker
	// (0 = 10s). Workers heartbeat every second while executing, so a
	// tripped read deadline means the worker is gone, not slow.
	ReadTimeout time.Duration
	// WriteTimeout bounds each frame send (0 = 10s). A worker that
	// stops reading trips it instead of wedging the dispatch forever.
	WriteTimeout time.Duration
	// DialTimeout bounds connection establishment (0 = 3s).
	DialTimeout time.Duration
	// Dial optionally replaces the TCP dialer — fault injection
	// (internal/faultx) and tests. Nil uses net.DialTimeout.
	Dial DialFunc
	// MaxWorkerFailures is the consecutive-failure budget before a
	// worker is abandoned for the rest of the job (0 = 3). A worker at
	// another protocol version is abandoned on its first handshake.
	MaxWorkerFailures int
	// BackoffBase/BackoffMax bound the jittered exponential reconnect
	// backoff (0 = 50ms / 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Parallelism bounds in-process execution when degrading to local
	// runs (0 = GOMAXPROCS).
	Parallelism int
	// Obs receives dispatch/retry/re-dispatch/health telemetry.
	Obs *obs.Observer

	// stMu guards the status/telemetry state below (status.go). Lazily
	// initialized so the zero-value Coordinator keeps working.
	stMu     sync.Mutex
	jobSt    *jobState
	workerSt map[string]*workerState

	// localSem bounds in-process execution across every concurrent job
	// (lazily sized from Parallelism), so campaigns degrading to local
	// runs share one CPU budget instead of multiplying it.
	localOnce sync.Once
	localSem  chan struct{}

	// chunkSeq issues process-unique chunk IDs, so a stale frame from an
	// abandoned exchange can never alias a live chunk on a reused
	// connection.
	chunkSeq atomic.Uint64
}

func (c *Coordinator) chunkSize() int {
	if c.ChunkSize <= 0 {
		return 16
	}
	return c.ChunkSize
}

func (c *Coordinator) chunkTarget() time.Duration {
	if c.ChunkTarget <= 0 {
		return 250 * time.Millisecond
	}
	return c.ChunkTarget
}

func (c *Coordinator) chunkTimeout() time.Duration {
	if c.ChunkTimeout <= 0 {
		return 5 * time.Minute
	}
	return c.ChunkTimeout
}

func (c *Coordinator) readTimeout() time.Duration {
	if c.ReadTimeout <= 0 {
		return 10 * time.Second
	}
	return c.ReadTimeout
}

func (c *Coordinator) writeTimeout() time.Duration {
	if c.WriteTimeout <= 0 {
		return 10 * time.Second
	}
	return c.WriteTimeout
}

func (c *Coordinator) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return 3 * time.Second
	}
	return c.DialTimeout
}

func (c *Coordinator) maxWorkerFailures() int {
	if c.MaxWorkerFailures <= 0 {
		return 3
	}
	return c.MaxWorkerFailures
}

// chunk is one contiguous slice of the seed range, carved from the work
// queue at dispatch time. A chunk is owned by exactly one place at any
// time — the queue, one worker goroutine, or the committed state; the
// per-offset commit ledger makes even a misbehaving double-dispatch
// harmless.
type chunk struct {
	start, count int
	attempts     int
}

// workQueue holds the seed ranges not yet dispatched. Unlike the old
// fixed pre-carved chunk channel, ranges are carved on demand — each
// worker connection takes a chunk sized for its own throughput — and
// failed dispatches return their range whole for someone else to carve
// differently.
type workQueue struct {
	mu     sync.Mutex
	segs   []chunk
	closed bool
	avail  chan struct{} // capacity 1: "work may be available" wakeup
}

func newWorkQueue(n int) *workQueue {
	return &workQueue{segs: []chunk{{start: 0, count: n}}, avail: make(chan struct{}, 1)}
}

func (q *workQueue) signal() {
	select {
	case q.avail <- struct{}{}:
	default:
	}
}

// pending is the number of runs not yet dispatched (requeued ranges
// included) — the denominator of the tail-shrinking heuristic.
func (q *workQueue) pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, s := range q.segs {
		n += s.count
	}
	return n
}

// take carves up to max runs off the front segment; nil means the queue
// is empty right now (the job may still have chunks in flight
// elsewhere — wait on avail or st.done). A take never spans segments,
// so a requeued range keeps its attempt count.
func (q *workQueue) take(max int) *chunk {
	if max < 1 {
		max = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.segs) == 0 {
		return nil
	}
	s := &q.segs[0]
	ch := &chunk{start: s.start, count: min(s.count, max), attempts: s.attempts}
	s.start += ch.count
	s.count -= ch.count
	if s.count == 0 {
		q.segs = q.segs[1:]
	}
	if len(q.segs) > 0 {
		q.signal() // more work: don't leave a second waiter sleeping
	}
	return ch
}

// put returns a failed dispatch's range to the queue and wakes a waiter.
// A put after close is dropped: the job already completed (the range's
// offsets committed through another dispatch), so requeuing it would
// only hand a dead segment to the next idle worker.
func (q *workQueue) put(ch *chunk) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.segs = append(q.segs, chunk{start: ch.start, count: ch.count, attempts: ch.attempts})
	q.mu.Unlock()
	q.signal()
}

// close discards every un-dispatched segment and makes later takes
// return nil and later puts no-ops. The run state calls it the moment
// the job finishes or fails, so convergence at the analysis layer —
// which ends the round by completing the job — cancels queued work
// instead of letting an idle worker dispatch a stale requeued segment
// after the result is already decided.
func (q *workQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.segs = nil
	q.mu.Unlock()
	q.signal()
}

// runState accumulates committed results, keyed by seed offset. Every
// offset commits exactly once; late duplicates (a slow worker racing
// its own re-dispatch) are discarded per offset, which is safe because
// a run's result is a pure function of its seed.
type runState struct {
	mu        sync.Mutex
	results   []RunResult
	got       []bool
	remaining int
	err       error
	done      chan struct{}
	closed    bool
	// queue is the job's work queue, closed together with done so no
	// idle worker can take (and dispatch) a stale requeued segment after
	// the job's outcome is already decided.
	queue *workQueue
}

func newRunState(n int, queue *workQueue) *runState {
	return &runState{
		results:   make([]RunResult, n),
		got:       make([]bool, n),
		remaining: n,
		done:      make(chan struct{}),
		queue:     queue,
	}
}

// commit installs a dispatch's results and returns the subset that was
// new — the runs hooks may observe. A nil return means the job already
// closed (finished or failed) and nothing was committed.
func (st *runState) commit(runs []RunResult) []RunResult {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	fresh := runs[:0:0]
	for _, r := range runs {
		if st.got[r.Offset] {
			continue
		}
		st.got[r.Offset] = true
		st.results[r.Offset] = r
		st.remaining--
		fresh = append(fresh, r)
	}
	finished := st.remaining == 0
	if finished {
		st.closed = true
		close(st.done)
	}
	st.mu.Unlock()
	// Queue teardown happens outside st.mu: close takes the queue lock,
	// and no queue path takes st.mu, so the lock order stays one-way.
	if finished && st.queue != nil {
		st.queue.close()
	}
	return fresh
}

// fail aborts the job with a terminal error (deterministic execution
// failures re-dispatching cannot cure).
func (st *runState) fail(err error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.err = err
	st.closed = true
	close(st.done)
	st.mu.Unlock()
	if st.queue != nil {
		st.queue.close()
	}
}

func (st *runState) finished() (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.closed, st.err
}

// RunCtx executes n runs with seeds baseSeed+0 … baseSeed+n−1 across
// the workers and returns the results ordered by seed offset —
// byte-for-byte the samples a local run would produce, independent of
// worker count, chunk size, or arrival order. Hooks (may be zero) observe
// runs as their chunks commit. When ctx is cancelled the
// job fails with the context's error at the next chunk boundary —
// in-flight runs finish (a simulator run is not interruptible) but no
// new chunk is dispatched or launched. The campaign service's DELETE
// and drain paths ride on this.
func (c *Coordinator) RunCtx(ctx context.Context, job Job, baseSeed uint64, n int, h population.RunHooks) ([]RunResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: non-positive run count %d", n)
	}
	if job.Benchmark == "" {
		return nil, errors.New("dist: job has no benchmark")
	}
	if err := job.Config.Validate(); err != nil {
		return nil, fmt.Errorf("dist: job config: %w", err)
	}

	queue := newWorkQueue(n)
	st := newRunState(n, queue)
	c.beginJob(job, n)

	span := c.Obs.T().StartSpan("dist.job", obs.Str("benchmark", job.Benchmark),
		obs.U64("base_seed", baseSeed), obs.Int("runs", n),
		obs.Int("workers", len(c.Workers)))

	// Cancellation fails the run state, which every dispatch and local
	// loop already observes at chunk boundaries.
	if ctx.Done() != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-ctx.Done():
				st.fail(context.Cause(ctx))
			case <-stopWatch:
			case <-st.done:
			}
		}()
	}

	var wg sync.WaitGroup
	for _, addr := range c.Workers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			c.workerLoop(addr, job, baseSeed, st, queue, h)
		}(addr)
	}
	allDead := make(chan struct{})
	go func() {
		wg.Wait()
		close(allDead)
	}()

	select {
	case <-st.done:
	case <-allDead:
		// Every worker is gone (or none was configured): degrade to
		// in-process execution of whatever is still queued.
		if done, _ := st.finished(); !done {
			if len(c.Workers) > 0 {
				c.Obs.Logf("dist: no reachable workers, running remaining chunks in-process")
				c.Obs.T().Event("dist.fallback_local", obs.Int("workers", len(c.Workers)))
			}
			c.runLocal(job, baseSeed, st, queue, h)
		}
	}
	<-allDead // worker goroutines all observe st.done before returning

	_, err := st.finished()
	c.endJob(err)
	if err != nil {
		span.End(obs.Str("error", err.Error()))
		return nil, err
	}
	span.End(obs.Int("completed", n))
	return st.results, nil
}

// workerLoop owns one worker address for the duration of a job: it
// connects, carves chunks off the shared work queue sized for this
// worker's throughput, dispatches them, and applies the failure policy
// (reconnect with jittered backoff, re-dispatch on error, abandon the
// worker after too many consecutive failures, or at once when it speaks
// another protocol version). Connecting happens before carving — the
// advertised parallelism sizes the first chunk.
func (c *Coordinator) workerLoop(addr string, job Job, baseSeed uint64, st *runState, queue *workQueue, h population.RunHooks) {
	hsh := fnv.New64a()
	hsh.Write([]byte(addr))
	bo := newBackoff(c.BackoffBase, c.BackoffMax, hsh.Sum64())
	var cn *conn
	defer func() {
		if cn != nil {
			cn.close()
		}
	}()
	failures := 0
	requeue := func(ch *chunk) {
		ch.attempts++
		c.Obs.M().Counter(obs.MetricDistRedispatches).Inc()
		c.jobStat(func(j *jobState) { j.redispatches++ })
		queue.put(ch)
	}
	abandon := func(ch *chunk, why error) {
		if ch != nil {
			requeue(ch)
		}
		c.noteWorkerDead(addr)
		c.Obs.M().Counter(obs.MetricDistWorkersDead).Inc()
		attrs := []obs.Attr{obs.Str("worker", addr), obs.Str("error", why.Error())}
		var skew *HandshakeError
		if errors.As(why, &skew) {
			attrs = append(attrs, obs.Int("worker_version", skew.Version), obs.Int("coordinator_version", ProtocolVersion))
		}
		c.Obs.T().Event("dist.worker_dead", attrs...)
		c.Obs.Logf("dist: abandoning worker %s: %v", addr, why)
	}
	for {
		// Ensure a healthy connection, backing off between attempts.
		for cn == nil {
			var err error
			cn, err = c.dial(addr)
			if err == nil {
				bo.reset()
				c.noteWorkerHello(addr, cn.parallelism)
				break
			}
			// A stale binary answers every redial the same way: abandon
			// it now instead of spending the failure budget on it.
			var skew *HandshakeError
			if errors.As(err, &skew) {
				abandon(nil, err)
				return
			}
			c.Obs.M().Counter(obs.MetricDistRetries).Inc()
			failures++
			if failures >= c.maxWorkerFailures() {
				abandon(nil, err)
				return
			}
			select {
			case <-st.done:
				return
			case <-time.After(bo.next()):
			}
		}
		ch := queue.take(c.nextChunkSize(addr, queue.pending()))
		if ch == nil {
			// Queue drained, but the job may still be waiting on chunks
			// in flight elsewhere — one of which may yet fail and requeue
			// its range. Sleep until either happens.
			select {
			case <-st.done:
				return
			case <-queue.avail:
				continue
			}
		}
		err := c.dispatch(cn, job, baseSeed, ch, st, h)
		if err == nil {
			failures = 0
			continue
		}
		if errors.Is(err, errJobDone) {
			return
		}
		var execErr *chunkExecError
		if errors.As(err, &execErr) {
			// Deterministic failure: the same seed fails everywhere, so
			// re-dispatching cannot help. Abort the whole job, matching
			// local collection semantics.
			st.fail(fmt.Errorf("dist: worker %s: chunk [%d,%d): %w", addr, ch.start, ch.start+ch.count, execErr))
			return
		}
		// Connection-level failure (death, timeout, malformed stream):
		// the chunk goes back to the pool and the connection is torn
		// down; another worker — or this one after reconnecting — picks
		// it up, possibly carved differently.
		cn.close()
		cn = nil
		failures++
		requeue(ch)
		if failures >= c.maxWorkerFailures() {
			abandon(nil, err)
			return
		}
		select {
		case <-st.done:
			return
		case <-time.After(bo.next()):
		}
	}
}

// maxAdaptiveChunk caps one adaptive dispatch so a wildly overestimated
// rate cannot swallow a whole campaign in a single chunk (which would
// defeat both re-balancing and failure recovery).
const maxAdaptiveChunk = 4096

// nextChunkSize decides how many runs to carve for a worker's next
// dispatch: observed runs/sec × ChunkTarget (seeded from hello_ok
// parallelism before telemetry exists), capped at half a fair share of
// the remaining work so chunks shrink toward the tail and no worker
// strags the job on one oversized final dispatch.
func (c *Coordinator) nextChunkSize(addr string, pending int) int {
	size := int(c.rateEstimate(addr)*c.chunkTarget().Seconds() + 0.5)
	if size > maxAdaptiveChunk {
		size = maxAdaptiveChunk
	}
	if pending > 0 {
		live := 2 * c.liveWorkers()
		if share := (pending + live - 1) / live; size > share {
			size = share
		}
	}
	if size < 1 {
		size = 1
	}
	return size
}

// chunkExecError marks a worker-reported execution failure, as opposed
// to a transport failure.
type chunkExecError struct{ msg string }

func (e *chunkExecError) Error() string { return e.msg }

// errJobDone aborts a dispatch whose job finished (or failed) elsewhere.
var errJobDone = errors.New("dist: job finished elsewhere")

// DialFunc establishes one transport connection; it matches
// net.DialTimeout and is the seam fault injectors and tests use.
type DialFunc func(network, address string, timeout time.Duration) (net.Conn, error)

func (c *Coordinator) dial(addr string) (*conn, error) {
	dial := c.Dial
	if dial == nil {
		dial = net.DialTimeout
	}
	nc, err := dial("tcp", addr, c.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("dist: dial %s: %w", addr, err)
	}
	cn := newConn(nc, c.writeTimeout())
	// Label this connection with the configured worker address, not the
	// transport's RemoteAddr — it is the stable identity spans, the
	// per-worker metric labels, and the /statusz table key all share.
	cn.addr = addr
	if err := cn.handshake(c.dialTimeout()); err != nil {
		cn.close()
		return nil, err
	}
	return cn, nil
}

// dispatch sends one chunk and consumes its result stream. Errors are
// transport-level unless wrapped in chunkExecError.
func (c *Coordinator) dispatch(cn *conn, job Job, baseSeed uint64, ch *chunk, st *runState, h population.RunHooks) error {
	// The job may have completed between carving and here (a slow
	// duplicate dispatch committing the final offsets): launch nothing —
	// neither span, ledger increment, nor wire frame.
	select {
	case <-st.done:
		return errJobDone
	default:
	}
	span := c.Obs.T().StartSpan("dist.chunk", obs.Str("worker", cn.addr),
		obs.Int("start", ch.start), obs.Int("count", ch.count), obs.Int("attempt", ch.attempts))
	c.Obs.M().Counter(obs.MetricDistChunksDispatched).Inc()
	c.jobStat(func(j *jobState) {
		j.chunksInFlight++
		if ch.attempts == 0 {
			j.chunks++
		}
	})
	defer c.jobStat(func(j *jobState) { j.chunksInFlight-- })
	// Chunk IDs are process-unique, not per-job indexes: work is carved
	// on demand, so two dispatches of overlapping ranges must never share
	// an ID a stale frame could alias.
	id := c.chunkSeq.Add(1)
	cfg := job.Config
	err := cn.send(frame{
		Type: frameRunChunk, ID: id,
		Benchmark: job.Benchmark, Config: &cfg, Scale: job.Scale,
		BaseSeed: baseSeed, Start: ch.start, Count: ch.count,
	})
	if err != nil {
		span.End(obs.Str("error", err.Error()))
		return err
	}
	deadline := time.Now().Add(c.chunkTimeout())
	runs := make([]RunResult, 0, ch.count)
	seen := make(map[int]bool, ch.count)
	for {
		// A slow dispatch racing its own re-dispatch stops as soon as the
		// job finishes elsewhere, instead of streaming to completion.
		select {
		case <-st.done:
			span.End(obs.Str("error", errJobDone.Error()))
			return errJobDone
		default:
		}
		readDL := time.Now().Add(c.readTimeout())
		if readDL.After(deadline) {
			readDL = deadline
		}
		f, err := cn.recv(readDL)
		if err != nil {
			span.End(obs.Str("error", err.Error()))
			return fmt.Errorf("dist: chunk stream from %s: %w", cn.addr, err)
		}
		// Telemetry snapshots describe the worker process, not a chunk, so
		// fold them in even when they arrive on stale frames.
		if f.Telemetry != nil {
			c.noteWorkerTelemetry(cn.addr, f.Telemetry)
		}
		if f.ID != id {
			continue // stale frame from an abandoned exchange
		}
		switch f.Type {
		case frameHeartbeat:
			continue
		case frameResultBatch:
			b := f.Batch
			if b == nil {
				span.End(obs.Str("error", "empty batch"))
				return fmt.Errorf("dist: worker %s sent result_batch with no payload", cn.addr)
			}
			if err := b.validate(); err != nil {
				span.End(obs.Str("error", err.Error()))
				return err
			}
			for i, off := range b.Offsets {
				if off < ch.start || off >= ch.start+ch.count || seen[off] {
					span.End(obs.Str("error", "bad offset"))
					return fmt.Errorf("dist: worker %s sent duplicate or out-of-chunk offset %d for chunk [%d,%d)",
						cn.addr, off, ch.start, ch.start+ch.count)
				}
				seen[off] = true
				// Rebuild the per-run metric map from the columns: names
				// decode once per batch instead of once per run.
				m := make(map[string]float64, len(b.Metrics))
				for k, vs := range b.Metrics {
					m[k] = vs[i]
				}
				runs = append(runs, RunResult{Offset: off, Metrics: m, Cycles: b.Cycles[i],
					Elapsed: time.Duration(b.ElapsedUS[i]) * time.Microsecond})
			}
		case frameChunkDone:
			if len(runs) != ch.count {
				span.End(obs.Str("error", "short chunk"))
				return fmt.Errorf("dist: worker %s finished chunk with %d/%d results", cn.addr, len(runs), ch.count)
			}
			c.Obs.M().Counter(obs.MetricDistChunksCompleted).Inc()
			c.noteWorkerChunk(cn.addr)
			c.jobStat(func(j *jobState) { j.chunksCompleted++ })
			if fresh := st.commit(runs); len(fresh) > 0 {
				fireHooks(job, baseSeed, fresh, h)
			}
			span.End(obs.Int("results", len(runs)))
			return nil
		case frameError:
			span.End(obs.Str("error", f.Error))
			return &chunkExecError{msg: f.Error}
		default:
			span.End(obs.Str("error", "unexpected frame "+f.Type))
			return fmt.Errorf("dist: unexpected %s frame from %s", f.Type, cn.addr)
		}
	}
}

// localSemaphore returns the process-wide in-process execution bound,
// shared by every concurrent job so N campaigns degrading locally still
// run at most Parallelism simulations at once.
func (c *Coordinator) localSemaphore() chan struct{} {
	c.localOnce.Do(func() {
		par := c.Parallelism
		if par <= 0 {
			par = runtime.GOMAXPROCS(0)
		}
		c.localSem = make(chan struct{}, par)
	})
	return c.localSem
}

// runLocal executes every still-queued chunk in-process — the
// degradation path, and the whole path when no workers are configured.
// It uses the same chunk/commit machinery so determinism is shared.
func (c *Coordinator) runLocal(job Job, baseSeed uint64, st *runState, queue *workQueue, h population.RunHooks) {
	sem := c.localSemaphore()
	var wg sync.WaitGroup
	for {
		ch := queue.take(c.chunkSize())
		if ch == nil {
			wg.Wait()
			return
		}
		if done, _ := st.finished(); done {
			wg.Wait()
			return
		}
		c.Obs.M().Counter(obs.MetricDistLocalChunks).Inc()
		c.jobStat(func(j *jobState) {
			j.localChunks++
			if ch.attempts == 0 {
				j.chunks++
			}
		})
		runs := make([]RunResult, ch.count)
		var cwg sync.WaitGroup
		failed := false
		var mu sync.Mutex
		for i := 0; i < ch.count; i++ {
			cwg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer cwg.Done()
				defer func() { <-sem }()
				off := ch.start + i
				seed := baseSeed + uint64(off)
				if h.OnRunStart != nil {
					h.OnRunStart(off, seed)
				}
				start := time.Now()
				res, err := sim.Run(job.Benchmark, job.Config, job.Scale, seed)
				elapsed := time.Since(start)
				if h.OnRunDone != nil {
					h.OnRunDone(off, seed, res, err, elapsed)
				}
				if err != nil {
					mu.Lock()
					failed = true
					mu.Unlock()
					st.fail(fmt.Errorf("dist: local run with seed %d: %w", seed, err))
					return
				}
				runs[i] = RunResult{Offset: off, Metrics: res.Metrics, Cycles: res.Cycles, Elapsed: elapsed}
			}(i)
		}
		wg.Add(1)
		go func(ch *chunk) {
			defer wg.Done()
			cwg.Wait()
			mu.Lock()
			bad := failed
			mu.Unlock()
			if !bad && st.commit(runs) != nil {
				c.jobStat(func(j *jobState) { j.chunksCompleted++ })
			}
		}(ch)
	}
}

// fireHooks reports a committed remote chunk's runs to the hooks in
// offset order. Hooks observe only — values and ordering of the returned
// samples never depend on them.
func fireHooks(job Job, baseSeed uint64, runs []RunResult, h population.RunHooks) {
	if h.OnRunStart == nil && h.OnRunDone == nil {
		return
	}
	for _, r := range runs {
		seed := baseSeed + uint64(r.Offset)
		if h.OnRunStart != nil {
			h.OnRunStart(r.Offset, seed)
		}
		if h.OnRunDone != nil {
			res := &sim.Result{Benchmark: job.Benchmark, Cycles: r.Cycles, Metrics: r.Metrics}
			h.OnRunDone(r.Offset, seed, res, nil, r.Elapsed)
		}
	}
}

// SplitAddrs parses a comma-separated worker address list (the CLIs'
// -workers flag), dropping empty entries so trailing commas are
// harmless and deduplicating repeats so one listed-twice worker doesn't
// get two worker loops — and with them a doubled failure budget and
// doubled dispatch share. nil means "no workers" — a purely local
// coordinator.
func SplitAddrs(s string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
