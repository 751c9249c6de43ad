package dist

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sim"
)

// dialRaw opens a raw protocol connection to a worker, without the
// coordinator machinery, so tests can speak the wire format directly.
func dialRaw(t *testing.T, addr string) *conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(nc, 0)
	t.Cleanup(func() { c.close() })
	return c
}

func recvT(t *testing.T, c *conn) frame {
	t.Helper()
	f, err := c.recv(time.Now().Add(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWorkerHelloAndPing: hello is answered at ProtocolVersion with the
// worker's slot count, and a legacy ping — gone with the old protocol
// versions — is refused by name and the connection closed.
func TestWorkerHelloAndPing(t *testing.T) {
	w := startWorker(t)
	c := dialRaw(t, w.Addr())
	if err := c.send(frame{Type: frameHello, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	if f := recvT(t, c); f.Type != frameHelloOK || f.Version != ProtocolVersion || f.Parallelism != 2 {
		t.Fatalf("hello answered with %+v, want %s v%d with parallelism 2", f, frameHelloOK, ProtocolVersion)
	}
	if err := c.send(frame{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	if f := recvT(t, c); f.Type != frameError || !strings.Contains(f.Error, "ping") {
		t.Errorf("ping answered with %+v", f)
	}
	if _, err := c.recv(time.Now().Add(2 * time.Second)); err == nil {
		t.Error("worker should close the connection after a ping")
	}
}

func TestWorkerRejectsVersionSkew(t *testing.T) {
	w := startWorker(t)
	// Newer and older coordinators alike: only ProtocolVersion is served.
	for _, v := range []int{ProtocolVersion + 7, ProtocolVersion - 1} {
		c := dialRaw(t, w.Addr())
		if err := c.send(frame{Type: frameHello, Version: v}); err != nil {
			t.Fatal(err)
		}
		f := recvT(t, c)
		if f.Type != frameError || !strings.Contains(f.Error, "version") {
			t.Errorf("hello v%d answered with %+v", v, f)
		}
	}
}

// TestWorkerRefusesChunkBeforeHello: a run_chunk on a connection that
// never completed hello skipped the version check, so it gets an error
// frame naming it and a closed connection — never a result.
func TestWorkerRefusesChunkBeforeHello(t *testing.T) {
	w := startWorker(t)
	c := dialRaw(t, w.Addr())
	cfg := sim.DefaultConfig()
	if err := c.send(frame{Type: frameRunChunk, ID: 4, Benchmark: testBench,
		Config: &cfg, Scale: testScale, BaseSeed: testSeed, Count: 2}); err != nil {
		t.Fatal(err)
	}
	f := recvT(t, c)
	if f.Type != frameError || !strings.Contains(f.Error, frameRunChunk) {
		t.Fatalf("un-negotiated run_chunk answered with %+v", f)
	}
	if f, err := c.recv(time.Now().Add(2 * time.Second)); err == nil {
		t.Errorf("worker sent %+v after refusing the chunk, want the connection closed", f)
	}
	if n := w.Status().RunsServed; n != 0 {
		t.Errorf("worker ran %d runs for an un-negotiated connection", n)
	}
}

func TestWorkerStreamsChunk(t *testing.T) {
	w := startWorker(t)
	c := dialRaw(t, w.Addr())
	if err := c.handshake(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	const id, start, count = 5, 2, 4
	err := c.send(frame{Type: frameRunChunk, ID: id, Benchmark: testBench,
		Config: &cfg, Scale: testScale, BaseSeed: testSeed, Start: start, Count: count})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]map[string]float64{}
	for {
		f := recvT(t, c)
		switch f.Type {
		case frameHeartbeat:
			continue
		case frameResultBatch:
			if f.ID != id {
				t.Fatalf("result_batch for chunk %d, want %d", f.ID, id)
			}
			if f.Batch == nil {
				t.Fatal("result_batch frame without payload")
			}
			if err := f.Batch.validate(); err != nil {
				t.Fatal(err)
			}
			for i, off := range f.Batch.Offsets {
				m := make(map[string]float64, len(f.Batch.Metrics))
				for k, vs := range f.Batch.Metrics {
					m[k] = vs[i]
				}
				got[off] = m
			}
		case frameChunkDone:
			if len(got) != count || f.Count != count {
				t.Fatalf("chunk_done after %d results (reported %d), want %d", len(got), f.Count, count)
			}
			for off := start; off < start+count; off++ {
				res, err := sim.Run(testBench, cfg, testScale, testSeed+uint64(off))
				if err != nil {
					t.Fatal(err)
				}
				if got[off] == nil || got[off][sim.MetricRuntime] != res.Metrics[sim.MetricRuntime] {
					t.Errorf("offset %d: streamed %v, local %g", off, got[off], res.Metrics[sim.MetricRuntime])
				}
			}
			return
		case frameError:
			t.Fatalf("worker reported: %s", f.Error)
		default:
			t.Fatalf("unexpected %q frame", f.Type)
		}
	}
}

func TestWorkerReportsRunErrorInBand(t *testing.T) {
	w := startWorker(t)
	c := dialRaw(t, w.Addr())
	if err := c.handshake(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	if err := c.send(frame{Type: frameRunChunk, ID: 1, Benchmark: "nope",
		Config: &cfg, Scale: testScale, BaseSeed: testSeed, Count: 2}); err != nil {
		t.Fatal(err)
	}
	for {
		f := recvT(t, c)
		if f.Type == frameHeartbeat {
			continue
		}
		if f.Type != frameError || !strings.Contains(f.Error, "nope") {
			t.Fatalf("bad benchmark answered with %+v", f)
		}
		break
	}
	// The failure was in-band: the connection must still serve.
	if err := c.send(frame{Type: frameRunChunk, ID: 2, Benchmark: testBench,
		Config: &cfg, Scale: testScale, BaseSeed: testSeed, Count: 1}); err != nil {
		t.Fatal(err)
	}
	for {
		f := recvT(t, c)
		if f.Type == frameChunkDone {
			break
		}
		if f.Type == frameError {
			t.Fatalf("connection dead after in-band error: %s", f.Error)
		}
	}
}

func TestWorkerRejectsMalformedChunk(t *testing.T) {
	w := startWorker(t)
	c := dialRaw(t, w.Addr())
	if err := c.handshake(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// No config, no benchmark, zero count.
	if err := c.send(frame{Type: frameRunChunk, ID: 3}); err != nil {
		t.Fatal(err)
	}
	f := recvT(t, c)
	if f.Type != frameError || f.ID != 3 {
		t.Errorf("malformed chunk answered with %+v", f)
	}
}

// TestWorkerRejectsOversizedChunk: a chunk's count and start are peer
// input. Counts no worker could allocate for (2^60 would panic its
// connection goroutine, 10^11 would exhaust its memory; either kills
// the process), any count above maxChunk, and a negative start each get
// an error frame before anything is allocated, and the connection still
// serves a valid chunk afterwards.
func TestWorkerRejectsOversizedChunk(t *testing.T) {
	w := startWorker(t)
	c := dialRaw(t, w.Addr())
	if err := c.handshake(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	chunk := func(id uint64, start, count int) frame {
		return frame{Type: frameRunChunk, ID: id, Benchmark: testBench, Config: &cfg,
			Scale: testScale, BaseSeed: testSeed, Start: start, Count: count}
	}
	for i, bad := range []frame{
		chunk(10, 0, 1<<60),
		chunk(11, 0, 100_000_000_000),
		chunk(12, 0, maxChunk+1),
		chunk(13, -1, 2),
	} {
		if err := c.send(bad); err != nil {
			t.Fatalf("bad chunk %d: %v", i, err)
		}
		if f := recvT(t, c); f.Type != frameError || f.ID != bad.ID || f.Error != "malformed run_chunk frame" {
			t.Fatalf("chunk of start %d, count %d answered with %+v, want a malformed run_chunk error", bad.Start, bad.Count, f)
		}
	}
	if err := c.send(chunk(20, 0, 2)); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		f := recvT(t, c)
		if f.ID != 20 {
			t.Fatalf("stray frame %+v", f)
		}
		switch f.Type {
		case frameHeartbeat:
		case frameResultBatch:
			got += f.Batch.len()
		case frameChunkDone:
			if got != 2 {
				t.Fatalf("valid chunk after rejected ones returned %d/2 runs", got)
			}
			return
		default:
			t.Fatalf("valid chunk after rejected ones answered with %+v", f)
		}
	}
}

func TestWorkerClosesOnUnknownFrame(t *testing.T) {
	w := startWorker(t)
	c := dialRaw(t, w.Addr())
	if err := c.send(frame{Type: "bogus"}); err != nil {
		t.Fatal(err)
	}
	f := recvT(t, c)
	if f.Type != frameError || !strings.Contains(f.Error, "bogus") {
		t.Errorf("unknown frame answered with %+v", f)
	}
	if _, err := c.recv(time.Now().Add(2 * time.Second)); err == nil {
		t.Error("worker should close the connection after an unknown frame")
	}
}

func TestWorkerServeWithoutListen(t *testing.T) {
	var w Worker
	if err := w.Serve(); err == nil {
		t.Error("Serve before Listen should error")
	}
}

// pipeListener is an in-memory net.Listener over net.Pipe, wired into
// the worker through its listen seam. net.Pipe writes are unbuffered —
// they block until the peer reads — which models a zero TCP window (a
// peer that stopped reading) exactly.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial hands the worker one end of a fresh pipe and returns the other.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.conns <- server:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never accepted the pipe connection")
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// startPipeWorker boots a worker serving over an in-memory listener.
func startPipeWorker(t *testing.T, w *Worker) *pipeListener {
	t.Helper()
	pl := newPipeListener()
	w.listen = func(network, address string) (net.Listener, error) { return pl, nil }
	if err := w.Listen("pipe"); err != nil {
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
	return pl
}

// connCount reports the worker's live connection-map size.
func connCount(w *Worker) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.conns)
}

// waitConnsDrained polls until the worker's connection map is empty.
func waitConnsDrained(t *testing.T, w *Worker, within time.Duration, what string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for connCount(w) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d connection(s) still tracked after %v", what, connCount(w), within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerStalledReaderDoesNotWedgeChunk is the worker-level
// regression test for the stalled-reader wedge: a coordinator that
// dispatches a chunk and then stops reading used to block the heartbeat
// goroutine (and with it the whole runChunk) forever inside the write
// lock. With write deadlines the chunk must abort and the connection be
// torn down promptly.
func TestWorkerStalledReaderDoesNotWedgeChunk(t *testing.T) {
	w := &Worker{Parallelism: 2, pol: policyWith(func(p *policy) {
		p.heartbeat = 20 * time.Millisecond
		p.workerWriteTimeout = 150 * time.Millisecond
	})}
	pl := startPipeWorker(t, w)
	client := pl.dial(t)
	c := newConn(client, 0)
	if err := c.handshake(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	if err := c.send(frame{Type: frameRunChunk, ID: 1, Benchmark: testBench,
		Config: &cfg, Scale: testScale, BaseSeed: testSeed, Count: 4}); err != nil {
		t.Fatal(err)
	}
	// Stop reading entirely: every worker write now blocks until its
	// write deadline trips. The worker must abort the chunk and drop
	// the connection instead of wedging forever.
	waitConnsDrained(t, w, 10*time.Second, "stalled-reader chunk")

	// Every executor arena must be released: a fresh chunk on a fresh
	// connection has to complete.
	c2 := newConn(pl.dial(t), 0)
	if err := c2.handshake(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c2.send(frame{Type: frameRunChunk, ID: 2, Benchmark: testBench,
		Config: &cfg, Scale: testScale, BaseSeed: testSeed, Count: 2}); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := c2.recv(time.Now().Add(10 * time.Second))
		if err != nil {
			t.Fatalf("fresh chunk after a stalled one: %v", err)
		}
		if f.Type == frameChunkDone {
			break
		}
		if f.Type == frameError {
			t.Fatalf("fresh chunk failed: %s", f.Error)
		}
	}
}

// TestWorkerIdleConnReaped is the regression test for the half-open
// connection leak: a coordinator that handshakes and then vanishes
// without closing used to hold the serve goroutine and conns-map entry
// for the life of the process (recv had no deadline). The idle read
// deadline must reap it.
func TestWorkerIdleConnReaped(t *testing.T) {
	w := &Worker{Parallelism: 1, pol: policyWith(func(p *policy) { p.idleTimeout = 100 * time.Millisecond })}
	pl := startPipeWorker(t, w)
	client := pl.dial(t)
	c := newConn(client, 0)
	if err := c.handshake(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := connCount(w); n != 1 {
		t.Fatalf("worker tracks %d conns after handshake, want 1", n)
	}
	// Go half-open: never send another frame, never close.
	waitConnsDrained(t, w, 5*time.Second, "half-open connection")
}

// TestDoomedChunkStopsLaunchingRuns is the regression test for the
// CPU-burn bug: a chunk whose coordinator disconnected used to keep
// launching and executing every remaining seed, holding execution slots
// hostage. Once doomed, launching must stop.
func TestDoomedChunkStopsLaunchingRuns(t *testing.T) {
	const count = 400
	reg := obs.NewRegistry()
	w := &Worker{
		Parallelism: 1,
		Obs:         &obs.Observer{Metrics: reg},
		pol: policyWith(func(p *policy) {
			p.heartbeat = 10 * time.Millisecond
			p.workerWriteTimeout = 100 * time.Millisecond
		}),
	}
	ln := startWorkerWith(t, w)
	c := dialRaw(t, ln)
	if err := c.handshake(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	if err := c.send(frame{Type: frameRunChunk, ID: 1, Benchmark: testBench,
		Config: &cfg, Scale: testScale, BaseSeed: testSeed, Count: count}); err != nil {
		t.Fatal(err)
	}
	// Read the first frame (heartbeat or result) so the chunk is known
	// to be executing, then kill the connection.
	if _, err := c.recv(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	c.close()

	waitConnsDrained(t, w, 10*time.Second, "disconnected chunk")
	// The executor's arenas must be free promptly: a job needing every
	// one of them completes within the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := w.exec.Run(ctx, testBench, cfg, testScale, testSeed, 0, w.exec.Parallelism(), population.RunHooks{}); err != nil {
		t.Fatalf("executor arenas still held after the chunk aborted: %v", err)
	}
	if launched := reg.Counter(obs.MetricDistWorkerRuns).Value(); launched >= count {
		t.Fatalf("worker executed all %d runs of a doomed chunk (launched %d)", count, launched)
	} else {
		t.Logf("doomed chunk launched %d of %d runs before stopping", launched, count)
	}
}

// startWorkerWith boots a pre-configured worker on a loopback port.
func startWorkerWith(t *testing.T, w *Worker) string {
	t.Helper()
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
	return w.Addr()
}

// TestWorkerShutdownIdle: with no chunks in flight, Shutdown returns
// promptly and Serve unwinds cleanly.
func TestWorkerShutdownIdle(t *testing.T) {
	w := &Worker{}
	if err := w.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Serve() }()
	if err := w.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after shutdown")
	}
}

// TestWorkerShutdownMidJob drains the worker while a coordinator's job
// is in flight: in-flight chunks finish, refused chunks re-dispatch (here
// to local fallback), and the job's population stays byte-identical to a
// local run — graceful worker restarts never corrupt campaigns.
func TestWorkerShutdownMidJob(t *testing.T) {
	w := &Worker{Parallelism: 1}
	addr := startWorkerWith(t, w)
	c := fastCoord(addr)

	const runs = 48
	popCh := make(chan *population.Population, 1)
	errCh := make(chan error, 1)
	go func() {
		p, err := c.GeneratePopulationCtx(context.Background(), testBench, sim.DefaultConfig(), testScale, runs, testSeed, population.RunHooks{})
		popCh <- p
		errCh <- err
	}()
	// Wait until the worker has actually served work, then drain it.
	deadline := time.Now().Add(10 * time.Second)
	for w.Status().ChunksServed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never received a chunk")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Shutdown(30 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := w.Status().InFlight; got != 0 {
		t.Fatalf("%d chunks still in flight after drain", got)
	}
	pop := <-popCh
	if err := <-errCh; err != nil {
		t.Fatalf("job failed across worker drain: %v", err)
	}
	checkPopEqual(t, pop, localPop(t, runs))
}
