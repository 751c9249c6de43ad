package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// perLayer lists the traced metrics and their units, in print order. A
// layer a workload bypasses reports 0, or what its bypass assertions
// observed.
var perLayer = []struct{ name, unit string }{
	{"sim.runs", "count"},
	{"sim.busy_s", "s"},
	{"sim.run_ms_p50", "ms"},
	{"sim.run_ms_p90", "ms"},
	{"sim.ns_per_cycle", "ns"},
	{"sim.cycles", "count"},
	{"sim.l1d.accesses", "count"},
	{"sim.l1d.misses", "count"},
	{"sim.l2.accesses", "count"},
	{"sim.l2.misses", "count"},
	{"sim.dir.invalidations", "count"},
	{"sim.noc.transfers", "count"},
	{"sim.dram.accesses", "count"},
	{"sim.self_frac.machine", "frac"},
	{"sim.self_frac.cache", "frac"},
	{"sim.self_frac.coherence", "frac"},
	{"sim.self_frac.mem", "frac"},
	{"sim.self_frac.noc", "frac"},
	{"sim.self_frac.cpu", "frac"},
	{"sim.self_frac.workload", "frac"},
	{"sim.self_frac.randx", "frac"},
	{"sim.self_frac.runtime", "frac"},
	{"population.generate_s", "s"},
	{"core.rounds", "count"},
	{"core.collect_s", "s"},
	{"core.interval_ms", "ms"},
	{"sampling.pilot_runs", "runs"},
	{"sampling.pilot_s", "s"},
	{"sampling.pilot_ms_per_run", "ms"},
	{"sampling.backing_calls", "count"},
	{"dist.jobs", "count"},
	{"dist.dials", "count"},
	{"dist.connect_ms_p50", "ms"},
	{"dist.chunks", "count"},
	{"dist.runs_per_chunk", "runs"},
	{"dist.frames_per_run", "frames"},
	{"dist.wire_bytes_per_run", "B"},
	{"dist.job_ms_p50", "ms"},
	{"dist.job_ms_p90", "ms"},
	{"dist.idle_frac", "frac"},
	{"dist.redispatches", "count"},
	{"dist.local_chunks", "count"},
	{"popcache.lookups", "count"},
	{"popcache.mem_hits", "count"},
	{"popcache.disk_hits", "count"},
	{"popcache.misses", "count"},
	{"popcache.hit_ratio", "frac"},
	{"campaignd.latency_p50_s", "s"},
	{"campaignd.latency_p90_s", "s"},
	{"campaignd.queue_wait_ms_p50", "ms"},
	{"campaignd.exec_ms_p50", "ms"},
	{"campaignd.exec_ms_p90", "ms"},
	{"campaignd.http_ms_p50", "ms"},
	{"campaignd.fairness_ratio", "ratio"},
	{"campaignd.rejected", "count"},
	{"manifest.bytes_written", "B"},
	{"go.alloc_mb", "MB"},
	{"go.mallocs_per_run", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"obs.trace_overhead_frac", "frac"},
}

// tracer collects one traced repetition: spans kept in memory and written
// out at the end, per-run simulator samples, wire counters from the dial
// wrapper, and the per-layer values the workload derives from them.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []spanRecord
	runMS  []float64 // per simulator run wall time
	jobMS  []float64 // per coordinator job wall time
	connMS []float64 // per dial, connect to first frame received
	sim    simTotals

	nextID                atomic.Int64
	dials                 atomic.Int64
	wireBytes, wireFrames atomic.Int64
	problems              []string // failed consistency assertions
	layer                 map[string]float64
	exact                 map[string]int64 // counts that must repeat exactly
	profile               bytes.Buffer
}

// simTotals sums the modelled work of in-process runs (sim.Result.Detail).
type simTotals struct {
	cycles, l1dAcc, l1dMiss, l2Acc, l2Miss, inval, noc, dram uint64
}

type spanRecord struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), layer: map[string]float64{}, exact: map[string]int64{}}
}

// span is an open span; end records it.
type span struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(name string, parent int64) *span {
	return &span{t: t, id: t.nextID.Add(1), parent: parent, name: name, start: time.Now()}
}

// end records the span and returns its duration.
func (s *span) end(attrs map[string]any) time.Duration {
	d := time.Since(s.start)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, spanRecord{ID: s.id, Parent: s.parent, Name: s.name,
		StartUS: s.start.Sub(s.t.origin).Microseconds(), DurUS: d.Microseconds(), Attrs: attrs})
	s.t.mu.Unlock()
	return d
}

// set records a per-layer value.
func (t *tracer) set(name string, v float64) {
	t.mu.Lock()
	t.layer[name] = v
	t.mu.Unlock()
}

// count records a per-layer count that must repeat exactly on the seed.
func (t *tracer) count(name string, v int64) {
	t.set(name, float64(v))
	t.mu.Lock()
	t.exact[name] = v
	t.mu.Unlock()
}

// simRun records one simulator run's wall time and, for in-process runs,
// its cycles.
func (t *tracer) simRun(elapsed time.Duration, cycles uint64) {
	t.mu.Lock()
	t.runMS = append(t.runMS, float64(elapsed)/1e6)
	t.sim.cycles += cycles
	t.mu.Unlock()
}

// job records one coordinator job's wall time.
func (t *tracer) job(d time.Duration) {
	t.mu.Lock()
	t.jobMS = append(t.jobMS, float64(d)/1e6)
	t.mu.Unlock()
}

// simLayer derives the sim.* timing metrics from the recorded runs.
func (t *tracer) simLayer() {
	t.mu.Lock()
	runs, busy := len(t.runMS), 0.0
	for _, ms := range t.runMS {
		busy += ms / 1e3
	}
	p50, p90 := quantile(t.runMS, 0.5), quantile(t.runMS, 0.9)
	cycles := t.sim.cycles
	t.mu.Unlock()
	t.count("sim.runs", int64(runs))
	t.set("sim.busy_s", busy)
	t.set("sim.run_ms_p50", p50)
	t.set("sim.run_ms_p90", p90)
	if cycles > 0 {
		t.count("sim.cycles", int64(cycles))
		t.set("sim.ns_per_cycle", busy*1e9/float64(cycles))
	}
}

// dialCounter is a dist.DialFunc that counts dials, for the bypass
// assertions; next, when set, does the dialing.
type dialCounter struct {
	n    atomic.Int64
	next func(network, addr string, timeout time.Duration) (net.Conn, error)
}

func (d *dialCounter) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	d.n.Add(1)
	if d.next != nil {
		return d.next(network, addr, timeout)
	}
	return net.DialTimeout(network, addr, timeout)
}

// dial is the dist.DialFunc wrapper: it counts dials, bytes and newline
// frames both ways, and times connect-to-first-frame.
func (t *tracer) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	t0 := time.Now()
	nc, err := net.DialTimeout(network, addr, timeout)
	t.dials.Add(1)
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: nc, t: t, dialed: t0}, nil
}

type countConn struct {
	net.Conn
	t      *tracer
	dialed time.Time
	seen   atomic.Bool
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		if c.seen.CompareAndSwap(false, true) {
			d := time.Since(c.dialed)
			c.t.mu.Lock()
			c.t.connMS = append(c.t.connMS, float64(d)/1e6)
			c.t.mu.Unlock()
		}
		c.t.wireBytes.Add(int64(n))
		c.t.wireFrames.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.wireBytes.Add(int64(n))
	c.t.wireFrames.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	return n, err
}

// startProfile starts the CPU profile and the allocation counters of the
// traced timed phase; the returned stop function folds the profile's self
// time into sim.self_frac.* and the runtime's deltas into go.*. Call it
// after the workload has set sim.runs.
func (t *tracer) startProfile() (func() error, error) {
	if err := pprof.StartCPUProfile(&t.profile); err != nil {
		return nil, err
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	return func() error {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		pprof.StopCPUProfile()
		t.set("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		t.mu.Lock()
		runs := t.layer["sim.runs"]
		t.mu.Unlock()
		if runs > 0 {
			t.set("go.mallocs_per_run", float64(ms1.Mallocs-ms0.Mallocs)/runs)
		}
		t.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
		t.set("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
		fracs, err := selfFractions(t.profile.Bytes())
		if err != nil {
			return err
		}
		for group, f := range fracs {
			t.set("sim.self_frac."+group, f)
		}
		return nil
	}, nil
}

// writeSpans writes the in-memory spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
