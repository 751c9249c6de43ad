package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/sim"
)

// ProtocolVersion is the one protocol coordinators and workers speak.
// Both sides of hello accept exactly this version: workers and
// coordinators ship from the same build, so a peer at any other version
// is a stale binary, refused before a campaign starts.
const ProtocolVersion = 5

// Frame types. The protocol is newline-delimited JSON: every message is
// one frame object on one line, in both directions.
const (
	// coordinator → worker
	frameHello    = "hello"     // handshake: version check
	frameRunChunk = "run_chunk" // execute a contiguous seed chunk

	// worker → coordinator
	frameHelloOK   = "hello_ok"   // handshake accepted
	frameHeartbeat = "heartbeat"  // liveness while a chunk is executing
	frameChunkDone = "chunk_done" // a chunk's results, all in one frame
	frameError     = "error"      // chunk failed worker-side, or a refused frame
)

// frame is the single wire message shape; Type selects which fields are
// meaningful. Keeping one struct makes decoding trivial and the protocol
// self-describing in captures.
type frame struct {
	Type    string `json:"type"`
	Version int    `json:"version,omitempty"`
	// Chunk identity (echoed on every reply to a chunk) and job
	// description (run_chunk).
	ID        uint64      `json:"id,omitempty"`
	Benchmark string      `json:"benchmark,omitempty"`
	Config    *sim.Config `json:"config,omitempty"`
	Scale     float64     `json:"scale,omitempty"`
	BaseSeed  uint64      `json:"base_seed,omitempty"`
	Start     int         `json:"start,omitempty"`
	Count     int         `json:"count,omitempty"`
	// Batch is the chunk's columnar results (chunk_done frames).
	Batch *ResultBatch `json:"batch,omitempty"`
	// Worker capability (hello_ok) and failure detail (error frames).
	Parallelism int    `json:"parallelism,omitempty"`
	Error       string `json:"error,omitempty"`
}

// ResultBatch is the columnar result payload of a chunk_done frame:
// every run of the chunk in one frame, with the per-metric value arrays
// keyed once by metric name instead of one map[string]float64 per run.
// Index i across all arrays describes one run; the arrays are always the
// same length. One frame per chunk amortizes JSON encode/decode,
// syscalls, and per-run map allocations across the whole chunk — the
// dist hot path's dominant cost at small simulation scales.
type ResultBatch struct {
	// Offsets are the runs' seed offsets within the campaign. A worker
	// sends them in seed order; the coordinator places each run by its
	// offset, whatever the order.
	Offsets []int `json:"offsets"`
	// Cycles and ElapsedUS align with Offsets.
	Cycles    []uint64 `json:"cycles"`
	ElapsedUS []int64  `json:"elapsed_us"`
	// Metrics maps each metric name to its value column. Every run in a
	// batch has the same metric set, so name strings ship (and decode)
	// once per chunk rather than once per run.
	Metrics map[string][]float64 `json:"metrics,omitempty"`
}

// add appends one run to the batch. It reports false — without
// modifying the batch — when the run's metric key set differs from the
// batch's.
func (b *ResultBatch) add(offset int, metrics map[string]float64, cycles uint64, elapsedUS int64) bool {
	if len(b.Offsets) == 0 {
		b.Metrics = make(map[string][]float64, len(metrics))
	} else {
		if len(metrics) != len(b.Metrics) {
			return false
		}
		for k := range metrics {
			if _, ok := b.Metrics[k]; !ok {
				return false
			}
		}
	}
	for k, v := range metrics {
		b.Metrics[k] = append(b.Metrics[k], v)
	}
	b.Offsets = append(b.Offsets, offset)
	b.Cycles = append(b.Cycles, cycles)
	b.ElapsedUS = append(b.ElapsedUS, elapsedUS)
	return true
}

// validate checks the columnar invariants a peer-supplied batch must
// hold before it is safe to index.
func (b *ResultBatch) validate() error {
	n := len(b.Offsets)
	if len(b.Cycles) != n || len(b.ElapsedUS) != n {
		return fmt.Errorf("ragged results: %d offsets, %d cycles, %d elapsed",
			n, len(b.Cycles), len(b.ElapsedUS))
	}
	for k, vs := range b.Metrics {
		if len(vs) != n {
			return fmt.Errorf("ragged results: metric %q has %d values for %d offsets", k, len(vs), n)
		}
	}
	return nil
}

// runs checks that a peer-supplied batch holds exactly the offsets
// [start, start+count), each once, and returns its runs in seed order.
// A nil batch holds no runs.
func (b *ResultBatch) runs(start, count int) ([]RunResult, error) {
	if b == nil {
		b = &ResultBatch{}
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	if len(b.Offsets) != count {
		return nil, fmt.Errorf("chunk [%d,%d) done with %d/%d results", start, start+count, len(b.Offsets), count)
	}
	runs := make([]RunResult, count)
	for i, off := range b.Offsets {
		// Every run gets a non-nil metric map, so a nil one marks an
		// offset not yet seen.
		if off < start || off >= start+count || runs[off-start].Metrics != nil {
			return nil, fmt.Errorf("duplicate or out-of-chunk offset %d for chunk [%d,%d)", off, start, start+count)
		}
		// Rebuild the per-run metric map from the columns: names decode
		// once per chunk instead of once per run.
		m := make(map[string]float64, len(b.Metrics))
		for k, vs := range b.Metrics {
			m[k] = vs[i]
		}
		runs[off-start] = RunResult{Offset: off, Metrics: m, Cycles: b.Cycles[i],
			Elapsed: time.Duration(b.ElapsedUS[i]) * time.Microsecond}
	}
	return runs, nil
}

// conn wraps a TCP connection with buffered JSONL framing and a write
// lock, so a chunk's heartbeats and its chunk_done can interleave safely.
type conn struct {
	net net.Conn
	r   *bufio.Reader
	dec *json.Decoder
	wmu sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	// writeTimeout bounds each send; zero disables. Without it a peer
	// that stops reading blocks the sender inside wmu forever — wedging
	// whatever holds the lock next (heartbeats, chunk_done).
	writeTimeout time.Duration
	addr         string
	// parallelism is the worker's advertised simulation slot count from
	// hello_ok (coordinator side only) — the adaptive chunk sizer's seed
	// before the coordinator has committed a chunk from the worker.
	parallelism int
}

func newConn(c net.Conn, writeTimeout time.Duration) *conn {
	r := bufio.NewReader(c)
	w := bufio.NewWriter(c)
	return &conn{
		net: c, r: r, dec: json.NewDecoder(r),
		w: w, enc: json.NewEncoder(w),
		writeTimeout: writeTimeout,
		addr:         c.RemoteAddr().String(),
	}
}

// send encodes one frame and flushes it, bounded by the write timeout.
// A tripped deadline poisons the buffered writer, so callers must treat
// any send error as fatal for the connection (they all do: both sides
// tear the connection down and re-establish).
func (c *conn) send(f frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.writeTimeout > 0 {
		if err := c.net.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return err
		}
	}
	if err := c.enc.Encode(f); err != nil {
		return err
	}
	return c.w.Flush()
}

// recv decodes the next frame, honouring the deadline (zero means no
// deadline). Read deadlines are the liveness mechanism: a worker that
// stops sending heartbeats trips the deadline and is treated as dead.
func (c *conn) recv(deadline time.Time) (frame, error) {
	if err := c.net.SetReadDeadline(deadline); err != nil {
		return frame{}, err
	}
	var f frame
	if err := c.dec.Decode(&f); err != nil {
		return frame{}, err
	}
	return f, nil
}

func (c *conn) close() error { return c.net.Close() }

// HandshakeError is a worker that refused the coordinator's hello or
// answered it at a protocol version other than ProtocolVersion — a
// stale binary. Unlike a transport failure, retrying cannot cure it.
type HandshakeError struct {
	Addr string
	// Version is the version the worker's hello_ok named; zero when the
	// worker refused the hello with an error frame instead.
	Version int
	// Refusal is the worker's error text when it refused the hello.
	Refusal string
}

func (e *HandshakeError) Error() string {
	if e.Refusal != "" {
		return fmt.Sprintf("dist: worker %s refused protocol v%d: %s", e.Addr, ProtocolVersion, e.Refusal)
	}
	return fmt.Sprintf("dist: worker %s speaks protocol v%d, coordinator speaks v%d", e.Addr, e.Version, ProtocolVersion)
}

// handshake runs the coordinator side of the hello exchange and records
// the worker's advertised parallelism on the connection.
func (c *conn) handshake(timeout time.Duration) error {
	if err := c.send(frame{Type: frameHello, Version: ProtocolVersion}); err != nil {
		return fmt.Errorf("dist: hello to %s: %w", c.addr, err)
	}
	f, err := c.recv(time.Now().Add(timeout))
	if err != nil {
		return fmt.Errorf("dist: hello reply from %s: %w", c.addr, err)
	}
	switch {
	case f.Type == frameError:
		return &HandshakeError{Addr: c.addr, Refusal: f.Error}
	case f.Type != frameHelloOK:
		return fmt.Errorf("dist: worker %s answered hello with %s, want %s", c.addr, f.Type, frameHelloOK)
	case f.Version != ProtocolVersion:
		return &HandshakeError{Addr: c.addr, Version: f.Version}
	}
	c.parallelism = f.Parallelism
	return nil
}
