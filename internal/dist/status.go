package dist

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// CoordinatorStatus is the coordinator's /statusz snapshot: cumulative
// chunk accounting across every job it has run (jobs may overlap when
// campaigns share the coordinator) plus a per-worker table folded from
// wire telemetry. Zero-valued before any Run.
type CoordinatorStatus struct {
	// Benchmark is the most recently submitted job's benchmark.
	Benchmark string `json:"benchmark,omitempty"`
	// Runs/Chunks accumulate across jobs; JobsActive counts Run calls in
	// flight right now, and Done is true when the coordinator has run at
	// least one job and none is in flight. LocalChunks counts the queued
	// seed ranges handed whole to the in-process executor.
	Runs            int                 `json:"runs"`
	Chunks          int                 `json:"chunks"`
	JobsStarted     int                 `json:"jobs_started,omitempty"`
	JobsActive      int                 `json:"jobs_active,omitempty"`
	ChunksCompleted int                 `json:"chunks_completed"`
	ChunksInFlight  int                 `json:"chunks_in_flight"`
	Redispatches    int                 `json:"redispatches"`
	LocalChunks     int                 `json:"local_fallback_chunks"`
	Done            bool                `json:"done"`
	LastError       string              `json:"last_error,omitempty"`
	Workers         []CoordWorkerStatus `json:"workers,omitempty"`
}

// CoordWorkerStatus is one worker's row in the coordinator's fleet
// table. RunsServed/InFlight/RunSeconds are the worker's own lifetime
// numbers from wire telemetry; ThroughputRPS is the coordinator-side
// differentiated rate — exactly the signal adaptive batch sizing
// consumes.
type CoordWorkerStatus struct {
	Addr           string  `json:"addr"`
	RunsServed     int64   `json:"runs_served"`
	InFlight       int64   `json:"in_flight"`
	ThroughputRPS  float64 `json:"throughput_runs_per_s"`
	MeanRunSeconds float64 `json:"mean_run_seconds"`
	ChunksDone     int     `json:"chunks_done"`
	Dead           bool    `json:"dead,omitempty"`
	LastSeenUnixMS int64   `json:"last_seen_unix_ms,omitempty"`
}

// workerState is the coordinator's mutable per-worker record behind the
// status table and the labeled fleet gauges.
type workerState struct {
	CoordWorkerStatus
	// lastRuns/lastTime anchor the previous accepted throughput sample,
	// so the instantaneous rate differentiates over a window long enough
	// to be meaningful.
	lastRuns int64
	lastTime time.Time
	// windowed is true once ThroughputRPS comes from a real
	// differentiated window (>= throughputWindow apart) rather than the
	// first-snapshot busy-rate seed; the adaptive chunk sizer trusts
	// windowed rates outright and blends earlier estimates with the
	// worker's advertised parallelism.
	windowed bool
	// helloParallelism is the slot count the worker advertised at
	// hello_ok — the sizer's only signal before any telemetry arrives.
	helloParallelism int
}

// throughputWindow is the minimum spacing between telemetry frames used
// to differentiate an instantaneous rate; closer frames only refresh the
// cumulative numbers.
const throughputWindow = 100 * time.Millisecond

// beginJob folds a new Run into the cumulative accounting. Jobs from
// concurrent campaigns fold into the same tallies, and worker rows
// persist across jobs of one coordinator (the fleet is the same). Chunk
// counts are not known up front — adaptive sizing carves them on demand
// — so they accumulate as first-attempt dispatches happen, via jobStat.
func (c *Coordinator) beginJob(job Job, runs int) {
	c.stMu.Lock()
	defer c.stMu.Unlock()
	c.jobSt.Benchmark = job.Benchmark
	c.jobSt.Runs += runs
	c.jobSt.JobsStarted++
	c.jobSt.JobsActive++
}

// endJob retires one Run, recording its terminal error if any.
func (c *Coordinator) endJob(err error) {
	c.stMu.Lock()
	defer c.stMu.Unlock()
	c.jobSt.JobsActive--
	if err != nil {
		c.jobSt.LastError = err.Error()
	}
}

// jobStat mutates the job accounting under the lock.
func (c *Coordinator) jobStat(f func(*CoordinatorStatus)) {
	c.stMu.Lock()
	defer c.stMu.Unlock()
	f(&c.jobSt)
}

// worker returns (creating) the named worker's row; callers hold stMu.
func (c *Coordinator) workerLocked(addr string) *workerState {
	if c.workerSt == nil {
		c.workerSt = make(map[string]*workerState)
	}
	ws := c.workerSt[addr]
	if ws == nil {
		ws = &workerState{CoordWorkerStatus: CoordWorkerStatus{Addr: addr}}
		c.workerSt[addr] = ws
	}
	return ws
}

// noteWorkerTelemetry folds one wire snapshot into the worker's row and
// the labeled fleet gauges the scheduler (and /metrics scrapers) read:
// spa_dist_worker_throughput_runs_per_s{worker=...},
// spa_dist_worker_inflight{worker=...} and friends.
func (c *Coordinator) noteWorkerTelemetry(addr string, t *WorkerTelemetry) {
	if t == nil {
		return
	}
	now := time.Now()
	c.stMu.Lock()
	ws := c.workerLocked(addr)
	ws.RunsServed = t.RunsServed
	ws.InFlight = t.InFlight
	ws.LastSeenUnixMS = now.UnixMilli()
	if t.RunsServed > 0 && t.RunSeconds > 0 {
		ws.MeanRunSeconds = t.RunSeconds / float64(t.RunsServed)
	}
	switch {
	case ws.lastTime.IsZero():
		// First snapshot: no window to differentiate over yet. Seed the
		// gauge with the worker's busy-time service rate (runs per busy
		// second) so the series exists from the first heartbeat.
		if t.RunSeconds > 0 {
			ws.ThroughputRPS = float64(t.RunsServed) / t.RunSeconds
		}
		ws.lastRuns, ws.lastTime = t.RunsServed, now
	case now.Sub(ws.lastTime) >= throughputWindow:
		dt := now.Sub(ws.lastTime).Seconds()
		ws.ThroughputRPS = float64(t.RunsServed-ws.lastRuns) / dt
		ws.lastRuns, ws.lastTime = t.RunsServed, now
		ws.windowed = true
	}
	row := *ws
	c.stMu.Unlock()

	l := obs.Labels{"worker": addr}
	m := c.Obs.M()
	m.GaugeL(obs.MetricDistWorkerRunsServed, l).Set(float64(row.RunsServed))
	m.GaugeL(obs.MetricDistWorkerInflight, l).Set(float64(row.InFlight))
	m.GaugeL(obs.MetricDistWorkerThroughput, l).Set(row.ThroughputRPS)
	m.GaugeL(obs.MetricDistWorkerMeanRunSeconds, l).Set(row.MeanRunSeconds)
}

// noteWorkerHello records the parallelism a worker advertised at
// hello_ok, and clears any stale Dead mark — a worker that answers a
// fresh handshake is alive again for scheduling purposes.
func (c *Coordinator) noteWorkerHello(addr string, parallelism int) {
	c.stMu.Lock()
	ws := c.workerLocked(addr)
	if parallelism > 0 {
		ws.helloParallelism = parallelism
	}
	ws.Dead = false
	c.stMu.Unlock()
}

// rateEstimate returns the best available runs/sec estimate for a
// worker, for adaptive chunk sizing. Preference order: a real
// differentiated throughput window; the busy-rate seed scaled by the
// advertised parallelism (mean run cost amortized over slots); bare
// hello_ok parallelism as "about 1 run/sec/slot" when nothing has ever
// run. Zero means no basis at all.
func (c *Coordinator) rateEstimate(addr string) float64 {
	c.stMu.Lock()
	defer c.stMu.Unlock()
	ws := c.workerSt[addr]
	if ws == nil {
		return 0
	}
	if ws.windowed && ws.ThroughputRPS > 0 {
		return ws.ThroughputRPS
	}
	par := ws.helloParallelism
	if par < 1 {
		par = 1
	}
	if ws.MeanRunSeconds > 0 {
		return float64(par) / ws.MeanRunSeconds
	}
	if ws.ThroughputRPS > 0 {
		// Busy-rate seed from the first snapshot: one slot's service
		// rate; the worker runs par slots.
		return ws.ThroughputRPS * float64(par)
	}
	if ws.helloParallelism > 0 {
		return float64(ws.helloParallelism)
	}
	return 0
}

// liveWorkers counts workers not currently marked dead (minimum 1), the
// divisor of the tail-shrinking heuristic.
func (c *Coordinator) liveWorkers() int {
	c.stMu.Lock()
	defer c.stMu.Unlock()
	n := 0
	for _, addr := range c.Workers {
		if ws := c.workerSt[addr]; ws == nil || !ws.Dead {
			n++
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// noteWorkerDead marks a worker abandoned for this job.
func (c *Coordinator) noteWorkerDead(addr string) {
	c.stMu.Lock()
	c.workerLocked(addr).Dead = true
	c.stMu.Unlock()
}

// noteWorkerChunk credits one committed chunk to the worker.
func (c *Coordinator) noteWorkerChunk(addr string) {
	c.stMu.Lock()
	c.workerLocked(addr).ChunksDone++
	c.stMu.Unlock()
	c.Obs.M().CounterL(obs.MetricDistWorkerChunks, obs.Labels{"worker": addr}).Inc()
}

// Status snapshots the coordinator for /statusz. Safe from any
// goroutine, including while Run is in flight.
func (c *Coordinator) Status() CoordinatorStatus {
	c.stMu.Lock()
	defer c.stMu.Unlock()
	s := c.jobSt
	s.Done = s.JobsStarted > 0 && s.JobsActive == 0
	for _, ws := range c.workerSt {
		s.Workers = append(s.Workers, ws.CoordWorkerStatus)
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Addr < s.Workers[j].Addr })
	return s
}
