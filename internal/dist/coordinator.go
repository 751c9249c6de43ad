package dist

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sim"
	"repro/internal/workload"
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
// and the simulator's scalar metrics. Cycles and Elapsed (wall time on
// the worker) are set for remote runs, whose hooks replay when their
// chunk commits.
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
// tenants' jobs through one shared instance so the fleet view, chunk
// accounting, and the local-fallback parallelism bound accumulate in
// one place; configuration fields must not be mutated once the first
// Run is in flight.
type Coordinator struct {
	// Workers are worker addresses (host:port). Empty means run
	// everything in-process.
	Workers []string
	// ChunkTarget is the wall time each remote chunk is sized to take
	// (0 = 250ms): each worker's next chunk is sized from the runs/sec of
	// the last chunk committed from it (seeded by hello_ok parallelism
	// before the first commit), and shrinks near the tail so no single
	// worker strags the job on one oversized final chunk. Scheduling is
	// non-deterministic; assembled results are not — they stay keyed by
	// seed offset.
	ChunkTarget time.Duration
	// Dial optionally replaces the TCP dialer, as the chaos soak does to
	// inject faults. Nil uses net.DialTimeout.
	Dial DialFunc
	// Parallelism is the arena count of the in-process executor that
	// runs whatever no worker takes (0 = GOMAXPROCS).
	Parallelism int
	// Obs receives dispatch/retry/re-dispatch/health telemetry.
	Obs *obs.Observer

	// pol is the transport policy; nil runs defaultPolicy.
	pol *policy

	// stMu guards the status state below (status.go): jobSt is
	// the cumulative job and chunk accounting Status reports (its Done and
	// Workers stay unset), workerSt the fleet table, made on first use.
	stMu     sync.Mutex
	jobSt    CoordinatorStatus
	workerSt map[string]*workerState

	// exec runs every job's in-process segments (lazily built from
	// Parallelism), so campaigns degrading to local runs share one CPU
	// budget instead of multiplying it.
	execOnce sync.Once
	exec     *population.Executor

	// chunkSeq issues process-unique chunk IDs, so a stale frame from an
	// abandoned exchange can never alias a live chunk on a reused
	// connection.
	chunkSeq atomic.Uint64
}

func (c *Coordinator) chunkTarget() time.Duration {
	if c.ChunkTarget <= 0 {
		return 250 * time.Millisecond
	}
	return c.ChunkTarget
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
// remote runs as their chunks commit and in-process runs as they execute.
// When ctx is cancelled the job fails with the context's error: in-flight
// runs finish (a simulator run is not interruptible) but no new chunk is
// dispatched and no new in-process run launched. The campaign service's
// DELETE and drain paths ride on this.
func (c *Coordinator) RunCtx(ctx context.Context, job Job, baseSeed uint64, n int, h population.RunHooks) ([]RunResult, error) {
	if n <= 0 || n > population.MaxRuns {
		return nil, fmt.Errorf("dist: run count %d outside [1, %d]", n, population.MaxRuns)
	}
	if job.Benchmark == "" {
		return nil, errors.New("dist: job has no benchmark")
	}
	if err := workload.CheckScale(job.Scale); err != nil {
		return nil, fmt.Errorf("dist: job: %w", err)
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

	// Cancellation fails the run state, which every dispatch observes at
	// chunk boundaries; the executor watches ctx itself.
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
			c.runLocal(ctx, job, baseSeed, st, queue, h)
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
	pol := c.pol.orDefault()
	hsh := fnv.New64a()
	hsh.Write([]byte(addr))
	bo := newBackoff(pol.backoffBase, pol.backoffMax, hsh.Sum64())
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
		c.jobStat(func(j *CoordinatorStatus) { j.Redispatches++ })
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
			if failures >= pol.maxFailures {
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
		if failures >= pol.maxFailures {
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

// maxChunk caps one dispatch so a wildly overestimated rate cannot
// swallow a whole campaign in a single chunk (which would defeat both
// re-balancing and failure recovery). It is also the wire bound: a
// worker refuses a run_chunk frame with a larger count before
// allocating for it.
const maxChunk = 4096

// nextChunkSize decides how many runs to carve for a worker's next
// dispatch: observed runs/sec × ChunkTarget (seeded from hello_ok
// parallelism before a chunk commits), capped at half a fair share of
// the remaining work so chunks shrink toward the tail and no worker
// strags the job on one oversized final dispatch.
func (c *Coordinator) nextChunkSize(addr string, pending int) int {
	size := int(c.rateEstimate(addr)*c.chunkTarget().Seconds() + 0.5)
	if size > maxChunk {
		size = maxChunk
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
	pol := c.pol.orDefault()
	nc, err := dial("tcp", addr, pol.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dist: dial %s: %w", addr, err)
	}
	cn := newConn(nc, pol.writeTimeout)
	// Label this connection with the configured worker address, not the
	// transport's RemoteAddr — it is the stable identity spans, the
	// per-worker metric labels, and the /statusz table key all share.
	cn.addr = addr
	if err := cn.handshake(pol.dialTimeout); err != nil {
		cn.close()
		return nil, err
	}
	return cn, nil
}

// dispatch sends one chunk and waits for its chunk_done, which carries
// every result of the chunk. Errors are transport-level unless wrapped
// in chunkExecError.
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
	c.jobStat(func(j *CoordinatorStatus) {
		j.ChunksInFlight++
		if ch.attempts == 0 {
			j.Chunks++
		}
	})
	defer c.jobStat(func(j *CoordinatorStatus) { j.ChunksInFlight-- })
	// Chunk IDs are process-unique, not per-job indexes: work is carved
	// on demand, so two dispatches of overlapping ranges must never share
	// an ID a stale frame could alias.
	id := c.chunkSeq.Add(1)
	cfg := job.Config
	sent := time.Now()
	c.noteInFlight(cn.addr, ch.count)
	defer c.noteInFlight(cn.addr, -ch.count)
	err := cn.send(frame{
		Type: frameRunChunk, ID: id,
		Benchmark: job.Benchmark, Config: &cfg, Scale: job.Scale,
		BaseSeed: baseSeed, Start: ch.start, Count: ch.count,
	})
	if err != nil {
		span.End(obs.Str("error", err.Error()))
		return err
	}
	pol := c.pol.orDefault()
	deadline := time.Now().Add(pol.chunkTimeout)
	for {
		// A slow dispatch racing its own re-dispatch stops as soon as the
		// job finishes elsewhere, instead of waiting out its chunk.
		select {
		case <-st.done:
			span.End(obs.Str("error", errJobDone.Error()))
			return errJobDone
		default:
		}
		readDL := time.Now().Add(pol.readTimeout)
		if readDL.After(deadline) {
			readDL = deadline
		}
		f, err := cn.recv(readDL)
		if err != nil {
			span.End(obs.Str("error", err.Error()))
			return fmt.Errorf("dist: chunk stream from %s: %w", cn.addr, err)
		}
		if f.ID != id {
			continue // stale frame from an abandoned exchange
		}
		switch f.Type {
		case frameHeartbeat:
			continue
		case frameChunkDone:
			// The chunk commits whole or not at all: a batch that is not
			// exactly its offsets fails the dispatch like a broken
			// connection, and the chunk is re-dispatched.
			runs, err := f.Batch.runs(ch.start, ch.count)
			if err != nil {
				span.End(obs.Str("error", err.Error()))
				return fmt.Errorf("dist: worker %s: %w", cn.addr, err)
			}
			c.Obs.M().Counter(obs.MetricDistChunksCompleted).Inc()
			c.noteWorkerChunk(cn.addr, runs, time.Since(sent))
			c.jobStat(func(j *CoordinatorStatus) { j.ChunksCompleted++ })
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

// executor returns the in-process executor shared by every concurrent
// job, so N campaigns degrading locally still run at most Parallelism
// simulations at once.
func (c *Coordinator) executor() *population.Executor {
	c.execOnce.Do(func() { c.exec = population.NewExecutor(c.Parallelism) })
	return c.exec
}

// runLocal executes every still-queued segment in-process, each in one
// executor call — the degradation path, and the whole path when no
// workers are configured. Results commit through the same ledger as
// remote chunks, so determinism is shared.
func (c *Coordinator) runLocal(ctx context.Context, job Job, baseSeed uint64, st *runState, queue *workQueue, h population.RunHooks) {
	for {
		ch := queue.take(math.MaxInt)
		if ch == nil {
			return
		}
		c.Obs.M().Counter(obs.MetricDistLocalChunks).Inc()
		c.jobStat(func(j *CoordinatorStatus) {
			j.LocalChunks++
			if ch.attempts == 0 {
				j.Chunks++
			}
		})
		metrics, err := c.executor().Run(ctx, job.Benchmark, job.Config, job.Scale, baseSeed, ch.start, ch.count, h)
		if err != nil {
			st.fail(err)
			return
		}
		runs := make([]RunResult, ch.count)
		for i, m := range metrics {
			runs[i] = RunResult{Offset: ch.start + i, Metrics: m}
		}
		if st.commit(runs) != nil {
			c.jobStat(func(j *CoordinatorStatus) { j.ChunksCompleted++ })
		}
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
