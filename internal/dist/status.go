package dist

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// CoordinatorStatus is the coordinator's /statusz snapshot: cumulative
// chunk accounting across every job it has run (jobs may overlap when
// campaigns share the coordinator) plus a per-worker table built from
// its own dispatches and commits. Zero-valued before any Run.
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
// table, built from the coordinator's own dispatches and commits — what
// this coordinator saw of the worker, not the worker's lifetime numbers
// (those are on the worker's own Status). InFlight counts runs in chunks
// dispatched to the worker and not yet returned; RunsServed,
// MeanRunSeconds and ChunksDone accumulate at each chunk_done, and
// ThroughputRPS is the last committed chunk's runs over its wall time
// from dispatch to chunk_done — the rate adaptive chunk sizing consumes.
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
	// runSeconds sums the committed runs' elapsed_us, so MeanRunSeconds
	// is runSeconds / RunsServed.
	runSeconds float64
	// helloParallelism is the slot count the worker advertised at
	// hello_ok — the sizer's only signal before a chunk commits.
	helloParallelism int
}

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

// noteInFlight adds n runs (negative: retires them) to the worker's
// in-flight count and its labeled gauge.
func (c *Coordinator) noteInFlight(addr string, n int) {
	c.stMu.Lock()
	ws := c.workerLocked(addr)
	ws.InFlight += int64(n)
	inflight := ws.InFlight
	c.stMu.Unlock()
	c.Obs.M().GaugeL(obs.MetricDistWorkerInflight, obs.Labels{"worker": addr}).Set(float64(inflight))
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

// rateEstimate returns a worker's runs/sec for adaptive chunk sizing:
// the throughput of the last chunk committed from it, else its hello_ok
// parallelism as "about 1 run/sec/slot". Zero means no basis at all.
func (c *Coordinator) rateEstimate(addr string) float64 {
	c.stMu.Lock()
	defer c.stMu.Unlock()
	ws := c.workerSt[addr]
	switch {
	case ws == nil:
		return 0
	case ws.ThroughputRPS > 0:
		return ws.ThroughputRPS
	}
	return float64(ws.helloParallelism)
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

// noteWorkerChunk folds one committed chunk into the worker's row and
// the labeled fleet series /metrics scrapers read
// (spa_dist_worker_runs_served{worker=...} and friends): its runs, their
// elapsed_us, and its wall time from dispatch to chunk_done.
func (c *Coordinator) noteWorkerChunk(addr string, runs []RunResult, wall time.Duration) {
	var sec float64
	for _, r := range runs {
		sec += r.Elapsed.Seconds()
	}
	c.stMu.Lock()
	ws := c.workerLocked(addr)
	ws.ChunksDone++
	ws.RunsServed += int64(len(runs))
	ws.runSeconds += sec
	ws.MeanRunSeconds = ws.runSeconds / float64(ws.RunsServed)
	if wall > 0 {
		ws.ThroughputRPS = float64(len(runs)) / wall.Seconds()
	}
	ws.LastSeenUnixMS = time.Now().UnixMilli()
	row := ws.CoordWorkerStatus
	c.stMu.Unlock()

	l := obs.Labels{"worker": addr}
	m := c.Obs.M()
	m.GaugeL(obs.MetricDistWorkerRunsServed, l).Set(float64(row.RunsServed))
	m.GaugeL(obs.MetricDistWorkerThroughput, l).Set(row.ThroughputRPS)
	m.GaugeL(obs.MetricDistWorkerMeanRunSeconds, l).Set(row.MeanRunSeconds)
	m.CounterL(obs.MetricDistWorkerChunks, l).Inc()
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
