package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Standard metric names used across the pipeline, so exposition is uniform
// no matter which layer incremented them.
const (
	MetricRunsStarted   = "spa_runs_started_total"
	MetricRunsCompleted = "spa_runs_completed_total"
	MetricRunsFailed    = "spa_runs_failed_total"
	MetricRunDuration   = "spa_run_duration_seconds"
	MetricSMCTests      = "spa_smc_tests_total"
	MetricCIBuilt       = "spa_ci_built_total"
	MetricCIFailed      = "spa_ci_failed_total"
	MetricCIWidth       = "spa_ci_width"
	MetricAdaptiveRound = "spa_adaptive_rounds_total"
	MetricTrials        = "spa_trials_total"
	MetricEntriesReused = "spa_entries_reused_total"

	// Distributed execution (internal/dist). Coordinator side unless
	// noted: chunks dispatched/completed, re-dispatches after a worker
	// failure, connection retries, workers declared dead, chunks that
	// degraded to in-process execution, and chunks served (worker side).
	MetricDistChunksDispatched = "spa_dist_chunks_dispatched_total"
	MetricDistChunksCompleted  = "spa_dist_chunks_completed_total"
	MetricDistRedispatches     = "spa_dist_redispatches_total"
	MetricDistRetries          = "spa_dist_conn_retries_total"
	MetricDistWorkersDead      = "spa_dist_workers_dead_total"
	MetricDistLocalChunks      = "spa_dist_local_fallback_chunks_total"
	MetricDistChunksServed     = "spa_dist_chunks_served_total"
	MetricDistWorkerRuns       = "spa_dist_worker_runs_total"

	// In-flight simulation runs (gauge): RunStarted adds, RunDone
	// subtracts, so /metrics shows live concurrency rather than only
	// cumulative counters.
	MetricRunsInflight = "spa_runs_inflight"

	// Labeled families. Per-benchmark run attribution (campaigns mix
	// benchmarks in one process), per-worker fleet series the coordinator
	// keeps from its own dispatches and commits (what this coordinator
	// saw of each worker, the throughput gauge being the rate adaptive
	// scheduling consumes), and the adaptive CI convergence trace (one
	// gauge update per refinement round).
	MetricBenchmarkRuns            = "spa_benchmark_runs_total"              // {benchmark}
	MetricDistWorkerThroughput     = "spa_dist_worker_throughput_runs_per_s" // {worker}
	MetricDistWorkerInflight       = "spa_dist_worker_inflight"              // {worker}
	MetricDistWorkerRunsServed     = "spa_dist_worker_runs_served"           // {worker}
	MetricDistWorkerMeanRunSeconds = "spa_dist_worker_run_seconds_mean"      // {worker}
	MetricDistWorkerChunks         = "spa_dist_worker_chunks_total"          // {worker}
	MetricCIConvergence            = "spa_ci_convergence"                    // {entry,metric,method} current width
	MetricCIConvergenceRuns        = "spa_ci_convergence_runs"               // {entry,metric,method}
	MetricCIConvergenceTarget      = "spa_ci_convergence_target"             // {entry,metric,method}

	// Campaign service (internal/campaignd), all labeled by tenant:
	// campaigns accepted, admission rejections (reason=queue_full|
	// inflight_full|server_full), live queue depth and running gauges,
	// terminal transitions (state=done|failed|cancelled), campaigns
	// resumed from the journal after a restart, and per-entry progress.
	MetricCampaignSubmitted   = "spa_campaignd_submitted_total"    // {tenant}
	MetricCampaignRejected    = "spa_campaignd_rejected_total"     // {tenant,reason}
	MetricCampaignQueueDepth  = "spa_campaignd_queue_depth"        // {tenant}
	MetricCampaignRunning     = "spa_campaignd_running"            // {tenant}
	MetricCampaignDone        = "spa_campaignd_campaigns_total"    // {tenant,state}
	MetricCampaignResumed     = "spa_campaignd_resumed_total"      // {tenant}
	MetricCampaignEntriesDone = "spa_campaignd_entries_done_total" // {tenant}
	MetricCampaignSchedPasses = "spa_campaignd_scheduler_passes_total"
)

// Counter is a monotonically increasing integer metric. Nil counters
// (from a nil registry) absorb all operations.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Add increases the gauge by d (CAS on the float bits, lock-free and
// safe from any number of goroutines). Nil gauges absorb the call.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sub decreases the gauge by d.
func (g *Gauge) Sub(d float64) { g.Add(-d) }

// numHistBuckets is the number of finite histogram buckets.
const numHistBuckets = 18

// histBuckets are the shared exponential bucket upper bounds (factor 4
// from 1µ to 16k, in the metric's own units — seconds for durations,
// metric units for CI widths). A fixed layout keeps Observe lock-free.
var histBuckets = [numHistBuckets]float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6,
	1e-3, 4e-3, 16e-3, 64e-3, 256e-3,
	1, 4, 16, 64, 256, 1024, 4096, 16384,
}

// Histogram is a fixed-bucket distribution metric. Observe is lock-free.
type Histogram struct {
	counts  [numHistBuckets + 1]atomic.Int64 // last bucket is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(histBuckets) && v > histBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the observation mean (0 with no observations).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Registry is a concurrent get-or-create store of named metrics. A nil
// *Registry hands out nil collectors, so a disabled pipeline pays only
// pointer checks.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Labels is one metric label set. Key order never matters: the registry
// canonicalizes to sorted `k="v"` form, so L{"a":"1","b":"2"} and
// L{"b":"2","a":"1"} name the same series.
type Labels map[string]string

// labelEscaper quotes label values per the Prometheus text format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// SeriesKey canonicalizes a labeled series name: the family name followed
// by a sorted `{k="v",...}` block (or the bare name for empty labels).
// This is the registry's storage key and, verbatim, the Prometheus series
// identity, which keeps exposition a string copy.
func SeriesKey(name string, labels Labels) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// CounterL returns the counter for one (name, label set) series, creating
// it on first use. The unlabeled fast path (Counter) is untouched: a
// labeled lookup pays one canonicalization, after which callers should
// hold the returned *Counter for hot paths.
func (r *Registry) CounterL(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.Counter(SeriesKey(name, labels))
}

// GaugeL returns the gauge for one (name, label set) series.
func (r *Registry) GaugeL(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.Gauge(SeriesKey(name, labels))
}

// HistogramL returns the histogram for one (name, label set) series.
func (r *Registry) HistogramL(name string, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	return r.Histogram(SeriesKey(name, labels))
}
