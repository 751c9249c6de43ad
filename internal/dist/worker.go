package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sim"
)

// Worker serves seed chunks to coordinators: it listens on a TCP
// address, executes the requested workload+sim runs with bounded local
// parallelism, and streams results back in columnar batches as they
// complete (offsets identify runs, so arrival order is free to be
// whatever the scheduler produces). One worker serves any number of
// coordinator connections concurrently.
type Worker struct {
	// Parallelism bounds concurrent simulations across all connections
	// (0 = GOMAXPROCS).
	Parallelism int
	// Obs receives spans and counters for served chunks; nil disables.
	Obs *obs.Observer

	// pol is the transport policy; nil runs defaultPolicy.
	pol *policy
	// listen replaces the TCP listener — the test seam for fault
	// injection (internal/faultx) and in-memory transports. Nil uses a
	// TCP listener with keepalive enabled.
	listen func(network, address string) (net.Listener, error)

	ln       net.Listener
	exec     *population.Executor
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool

	// activeChunks counts chunks currently streaming; Shutdown waits for
	// it to reach zero before tearing connections down.
	activeChunks atomic.Int64

	// Lifetime run accounting, the source of the wire telemetry
	// snapshots and Status: total runs completed, cumulative run wall
	// seconds (float64 bits, CAS-accumulated), and runs in flight now.
	runsDone   atomic.Int64
	runSecBits atomic.Uint64
	inflight   atomic.Int64
	chunks     atomic.Int64
}

// addRunSeconds folds one run's wall time into the cumulative sum.
func (w *Worker) addRunSeconds(s float64) {
	for {
		old := w.runSecBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + s)
		if w.runSecBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// telemetry builds the compact wire snapshot, nil when there is nothing
// to report yet (so idle heartbeats stay minimal).
func (w *Worker) telemetry() *WorkerTelemetry {
	t := &WorkerTelemetry{
		RunsServed: w.runsDone.Load(),
		InFlight:   w.inflight.Load(),
		RunSeconds: math.Float64frombits(w.runSecBits.Load()),
	}
	if t.empty() {
		return nil
	}
	return t
}

// WorkerStatus is the /statusz snapshot of a worker process.
type WorkerStatus struct {
	Addr         string  `json:"addr"`
	Parallelism  int     `json:"parallelism"`
	ActiveConns  int     `json:"active_conns"`
	ChunksServed int64   `json:"chunks_served"`
	RunsServed   int64   `json:"runs_served"`
	InFlight     int64   `json:"in_flight"`
	RunSeconds   float64 `json:"run_seconds"`
}

// Status reports the worker's live state; safe from any goroutine.
func (w *Worker) Status() WorkerStatus {
	w.mu.Lock()
	conns := len(w.conns)
	w.mu.Unlock()
	par := 0
	if w.exec != nil {
		par = w.exec.Parallelism()
	}
	return WorkerStatus{
		Addr:         w.Addr(),
		Parallelism:  par,
		ActiveConns:  conns,
		ChunksServed: w.chunks.Load(),
		RunsServed:   w.runsDone.Load(),
		InFlight:     w.inflight.Load(),
		RunSeconds:   math.Float64frombits(w.runSecBits.Load()),
	}
}

// Listen binds the worker to addr (e.g. ":9777" or "127.0.0.1:0").
// TCP keepalive is enabled on accepted connections so a coordinator
// host that vanishes without a FIN is detected at the transport layer
// too, not only by the idle read deadline.
func (w *Worker) Listen(addr string) error {
	listen := w.listen
	if listen == nil {
		lc := net.ListenConfig{KeepAlive: 30 * time.Second}
		listen = func(network, address string) (net.Listener, error) {
			return lc.Listen(context.Background(), network, address)
		}
	}
	ln, err := listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: worker listen %s: %w", addr, err)
	}
	w.ln = ln
	w.exec = population.NewExecutor(w.Parallelism)
	w.conns = make(map[net.Conn]struct{})
	return nil
}

// Addr returns the bound listen address (useful with port 0).
func (w *Worker) Addr() string {
	if w.ln == nil {
		return ""
	}
	return w.ln.Addr().String()
}

// Serve accepts coordinator connections until Close. It returns nil on
// a clean shutdown.
func (w *Worker) Serve() error {
	if w.ln == nil {
		return errors.New("dist: worker not listening (call Listen first)")
	}
	for {
		nc, err := w.ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed || w.draining
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			nc.Close()
			return nil
		}
		w.conns[nc] = struct{}{}
		w.mu.Unlock()
		go w.serveConn(nc)
	}
}

// Shutdown drains the worker gracefully: it stops accepting new
// connections, refuses chunk requests arriving on existing ones (their
// coordinators re-dispatch to the rest of the fleet), and waits up to
// timeout for in-flight chunks to finish streaming before tearing the
// connections down. This is the SIGINT/SIGTERM path — a worker leaving
// a fleet this way never costs a coordinator more than a re-dispatch.
func (w *Worker) Shutdown(timeout time.Duration) error {
	w.mu.Lock()
	if w.closed || w.draining {
		w.mu.Unlock()
		return w.Close()
	}
	w.draining = true
	ln := w.ln
	w.mu.Unlock()
	if ln != nil {
		ln.Close() // Serve's accept loop sees draining and returns nil
	}
	deadline := time.Now().Add(timeout)
	for w.activeChunks.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	w.Close()
	return nil
}

// Close stops accepting and tears down every live connection, aborting
// in-flight chunks (their coordinators will re-dispatch elsewhere).
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	conns := make([]net.Conn, 0, len(w.conns))
	for nc := range w.conns {
		conns = append(conns, nc)
	}
	w.mu.Unlock()
	var err error
	if w.ln != nil {
		if cerr := w.ln.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
			err = cerr // Shutdown already closed the listener: not an error
		}
	}
	for _, nc := range conns {
		nc.Close()
	}
	return err
}

func (w *Worker) serveConn(nc net.Conn) {
	defer func() {
		nc.Close()
		w.mu.Lock()
		delete(w.conns, nc)
		w.mu.Unlock()
	}()
	pol := w.pol.orDefault()
	c := newConn(nc, pol.workerWriteTimeout)
	hello := false
	for {
		f, err := c.recv(time.Now().Add(pol.idleTimeout))
		if err != nil {
			switch {
			case errors.Is(err, os.ErrDeadlineExceeded):
				w.Obs.T().Event("dist.worker_conn_idle", obs.Str("peer", c.addr))
			case !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed):
				w.Obs.T().Event("dist.worker_conn_error", obs.Str("peer", c.addr), obs.Str("error", err.Error()))
			}
			return
		}
		switch {
		case f.Type == frameHello:
			if f.Version != ProtocolVersion {
				c.send(frame{Type: frameError,
					Error: fmt.Sprintf("protocol version %d, worker speaks %d", f.Version, ProtocolVersion)})
				return
			}
			if err := c.send(frame{Type: frameHelloOK, Version: ProtocolVersion, Parallelism: w.exec.Parallelism()}); err != nil {
				return
			}
			hello = true
		case !hello:
			// A peer that skipped the version check gets no work.
			c.send(frame{Type: frameError, ID: f.ID, Error: fmt.Sprintf("%q frame before hello", f.Type)})
			return
		case f.Type == frameRunChunk:
			w.mu.Lock()
			draining := w.draining
			w.mu.Unlock()
			if draining {
				// Refuse by closing: the coordinator sees a transport
				// failure and re-dispatches the chunk to another worker —
				// never an execution error, which would abort its job.
				w.Obs.T().Event("dist.worker_drain_refuse", obs.Str("peer", c.addr))
				return
			}
			if err := w.runChunk(c, f); err != nil {
				return
			}
		default:
			c.send(frame{Type: frameError, ID: f.ID, Error: fmt.Sprintf("unknown frame type %q", f.Type)})
			return
		}
	}
}

// runChunk executes one contiguous seed chunk and streams results. The
// connection error (not the simulation error) is returned: a failed run
// is reported in-band with an error frame and the connection stays up.
func (w *Worker) runChunk(c *conn, req frame) error {
	span := w.Obs.T().StartSpan("dist.worker_chunk", obs.Str("peer", c.addr),
		obs.U64("id", req.ID), obs.Str("benchmark", req.Benchmark),
		obs.Int("start", req.Start), obs.Int("count", req.Count))
	w.Obs.M().Counter(obs.MetricDistChunksServed).Inc()
	w.chunks.Add(1)
	w.activeChunks.Add(1)
	defer w.activeChunks.Add(-1)
	// The count is peer input: bound it before anything is sized by it.
	if req.Count < 1 || req.Count > maxChunk || req.Start < 0 || req.Config == nil || req.Benchmark == "" {
		span.End(obs.Str("error", "malformed chunk"))
		return c.send(frame{Type: frameError, ID: req.ID, Error: "malformed run_chunk frame"})
	}

	// doom ends the chunk's context once it cannot complete on this
	// connection — a failed send or heartbeat means the coordinator is
	// gone. The executor then stops launching, so a doomed chunk doesn't
	// burn CPU and hold arenas other coordinators' chunks need; runs
	// already in flight finish and free theirs.
	ctx, doom := context.WithCancel(context.Background())
	defer doom()

	pol := w.pol.orDefault()
	stopHB := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(pol.heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-t.C:
				// A failed heartbeat means the coordinator is gone: the
				// error itself also surfaces on the result path, but
				// dooming here stops run launches a heartbeat sooner.
				if c.send(frame{Type: frameHeartbeat, ID: req.ID, Telemetry: w.telemetry()}) != nil {
					doom()
				}
			}
		}
	}()
	defer func() {
		close(stopHB)
		hbWG.Wait()
	}()

	type runOut struct {
		offset  int
		metrics map[string]float64
		cycles  uint64
		elapsed time.Duration
	}
	outs := make(chan runOut, req.Count)

	// Completed runs accumulate into a columnar result_batch, flushed
	// every batchRuns runs or batchFlush of wall time — one frame and one
	// syscall amortized over the whole batch instead of per run. A failed
	// send dooms the chunk and drops every later result.
	sendErrCh := make(chan error, 1)
	go func() {
		var sendErr error
		rb := &ResultBatch{}
		flushT := time.NewTicker(pol.batchFlush)
		defer flushT.Stop()
		flush := func() {
			if rb.len() == 0 || sendErr != nil {
				return
			}
			if sendErr = c.send(frame{Type: frameResultBatch, ID: req.ID, Batch: rb}); sendErr != nil {
				doom()
				return
			}
			rb.reset() // send encodes synchronously, so the columns are free to reuse
		}
		for {
			select {
			case r, ok := <-outs:
				if !ok {
					flush()
					sendErrCh <- sendErr
					return
				}
				if sendErr != nil {
					continue
				}
				if !rb.add(r.offset, r.metrics, r.cycles, r.elapsed.Microseconds()) {
					// Metric key set changed mid-chunk (rare): flush the
					// homogeneous batch and start over on a fresh one.
					flush()
					rb.add(r.offset, r.metrics, r.cycles, r.elapsed.Microseconds())
				}
				if rb.len() >= pol.batchRuns {
					flush()
				}
			case <-flushT.C:
				flush()
			}
		}
	}()

	_, runErr := w.exec.Run(ctx, req.Benchmark, *req.Config, req.Scale, req.BaseSeed, req.Start, req.Count, population.RunHooks{
		OnRunStart: func(int, uint64) {
			w.Obs.M().Counter(obs.MetricDistWorkerRuns).Inc()
			w.inflight.Add(1)
		},
		OnRunDone: func(off int, _ uint64, res *sim.Result, err error, elapsed time.Duration) {
			w.inflight.Add(-1)
			w.runsDone.Add(1)
			w.addRunSeconds(elapsed.Seconds())
			if err == nil {
				outs <- runOut{offset: off, metrics: res.Metrics, cycles: res.Cycles, elapsed: elapsed}
			}
		},
	})
	close(outs)
	sendErr := <-sendErrCh

	switch {
	case sendErr != nil:
		span.End(obs.Str("error", sendErr.Error()))
		return sendErr
	case errors.Is(runErr, context.Canceled):
		// Doomed by a heartbeat failure before any result send failed:
		// the coordinator is gone, so tear the connection down.
		err := errors.New("dist: chunk aborted, coordinator connection lost")
		span.End(obs.Str("error", err.Error()))
		return err
	case runErr != nil:
		span.End(obs.Str("error", runErr.Error()))
		return c.send(frame{Type: frameError, ID: req.ID, Error: runErr.Error()})
	}
	span.End(obs.Int("results", req.Count))
	return c.send(frame{Type: frameChunkDone, ID: req.ID, Count: req.Count, Telemetry: w.telemetry()})
}
