package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/popcache"
	"repro/internal/population"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/stats"
)

// adaptive-fleet: one adaptive manifest per profile — the default and
// the halved-L2 configuration, each with a plain and a stratified
// target-width analysis — run through manifest.Runner over two loopback
// dist workers. Every refinement round, pilot block and run of
// consecutive stratified seeds is its own coordinator job that dials every
// worker, so dispatch, handshake, wire and round-barrier idle time are a
// large share here and absent elsewhere.
const (
	fleetScale       = 0.05
	fleetFixedRuns   = 8 // the runner simulates each entry's fixed population first
	fleetGrow        = 100
	fleetWidth       = 6e-7 // seconds of simulated runtime
	fleetWorkers     = 2
	fleetChunkTarget = 250 * time.Millisecond // the CLIs' -chunk-target-ms default
)

// fleetProfiles are the profiles with the largest design savings in the
// runs-to-width study. Rounds grow by fleetGrow runs and every seed tried
// reaches the target width in the second round, so the amount of work
// does not depend on the seed; rounds of the (F, C) minimum stop anywhere
// between 30 and 300 runs.
var fleetProfiles = []string{"canneal", "ferret", "dedup", "streamcluster"}

func fleetManifest(seed uint64, k int) *manifest.Manifest {
	p := fleetProfiles[k]
	return &manifest.Manifest{
		Name: "fleet-" + p, Seed: manifestSeed(seed, 1+k), Scale: fleetScale, Runs: fleetFixedRuns,
		Entries: []manifest.Entry{{Benchmark: p}, {Benchmark: p, Variant: "l2half"}},
		Analyses: []manifest.Analysis{
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9, TargetWidth: fleetWidth, GrowBatch: fleetGrow},
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9, TargetWidth: fleetWidth, GrowBatch: fleetGrow, Sampling: "stratified"},
		},
	}
}

type fleet struct {
	dir     string
	ms      []*manifest.Manifest
	workers []*dist.Worker
	addrs   []string
	serving sync.WaitGroup
}

func setupFleet(dir string, seed uint64, _ *tracer) (instance, error) {
	f := &fleet{dir: dir}
	for k := range fleetProfiles {
		m := fleetManifest(seed, k)
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if err := manifest.WriteFileAtomic(filepath.Join(dir, m.Name+".json"), m.Save); err != nil {
			return nil, err
		}
		f.ms = append(f.ms, m)
	}
	for i := 0; i < fleetWorkers; i++ {
		w := &dist.Worker{Parallelism: 1}
		if err := w.Listen("127.0.0.1:0"); err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		f.addrs = append(f.addrs, w.Addr())
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			if err := w.Serve(); err != nil {
				fmt.Fprintln(os.Stderr, "spabench: worker:", err)
			}
		}()
	}
	return f, nil
}

func (f *fleet) close() {
	for _, w := range f.workers {
		w.Close()
	}
	f.serving.Wait()
}

// fleetStats sums the coordinators' status over one repetition.
type fleetStats struct {
	jobs, chunks, runs, redispatches, local int
}

func (s *fleetStats) add(st dist.CoordinatorStatus) {
	s.jobs += st.JobsStarted
	s.chunks += st.Chunks
	s.runs += st.Runs
	s.redispatches += st.Redispatches
	s.local += st.LocalChunks
}

func (f *fleet) run(tr *tracer) (*outcome, error) {
	out := &outcome{counts: map[string]int64{}}
	t := &fleetTrace{tr: tr}
	if tr != nil {
		t.root = tr.begin("adaptive-fleet", 0)
	}
	start := time.Now()
	var st fleetStats
	var reused int64
	for _, m := range f.ms {
		var body []byte
		var status dist.CoordinatorStatus
		var err error
		if tr == nil {
			var n int64
			body, status, n, err = f.runner(m)
			reused += n
		} else {
			body, status, err = f.traced(t, m)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		out.reports = append(out.reports, namedReport{m.Name, body})
		// A fleet that fell back to in-process execution, or re-ran
		// chunks, measured a different program.
		out.ops++
		if status.LocalChunks != 0 || status.Redispatches != 0 {
			out.failures = append(out.failures, fmt.Sprintf("%s: %d local-fallback chunks, %d re-dispatches",
				m.Name, status.LocalChunks, status.Redispatches))
		}
		st.add(status)
	}
	makespan := time.Since(start)
	var served int64
	var busy float64
	for _, w := range f.workers {
		ws := w.Status()
		served += ws.RunsServed
		busy += ws.RunSeconds
	}
	out.counts["sim_runs"] = served
	if tr == nil {
		out.bypass = map[string]int64{"manifest.entries_reused": reused}
	} else {
		t.root.end(nil)
		t.layers(st, served, busy, makespan)
	}
	return out, nil
}

// runner runs one manifest the way the campaign CLI does. It also returns
// the populations the runner reused instead of simulating — from a cache
// or an earlier run's files — which must be none.
func (f *fleet) runner(m *manifest.Manifest) ([]byte, dist.CoordinatorStatus, int64, error) {
	reg := obs.NewRegistry()
	r := &manifest.Runner{OutDir: filepath.Join(f.dir, "out"), Workers: f.addrs, ChunkTarget: fleetChunkTarget,
		Obs: &obs.Observer{Metrics: reg}}
	if _, err := r.Run(m); err != nil {
		return nil, dist.CoordinatorStatus{}, 0, err
	}
	body, err := os.ReadFile(r.ReportPath(m))
	return body, r.Coordinator().Status(), reg.Counter(obs.MetricEntriesReused).Value(), err
}

// fleetTrace accumulates one traced repetition's core, sampling and dist
// timings.
type fleetTrace struct {
	tr   *tracer
	root *span

	mu                   sync.Mutex
	rounds, backingCalls int
	pilotRuns            int
	collect, interval    time.Duration
	pilot                time.Duration
}

func (t *fleetTrace) add(f func()) {
	t.mu.Lock()
	f()
	t.mu.Unlock()
}

// runHooks record every run's wall time as its chunk commits.
func (t *fleetTrace) runHooks() core.Hooks {
	return core.Hooks{OnRunDone: func(_ uint64, _ float64, err error, elapsed time.Duration) {
		if err == nil {
			t.tr.simRun(elapsed, 0)
		}
	}}
}

// traced composes the public calls manifest.Runner makes for an adaptive
// manifest over workers — a coordinator with the dial wrapper,
// GeneratePopulationCtx for the fixed population, then per analysis
// dist.Coordinator.CollectorCtx → sampling.New → core.AnalyzeToWidthWith —
// with timing wrappers on the collector, the pilot function and the
// interval. The rebuilt report must match the untraced digest byte for
// byte.
func (f *fleet) traced(t *fleetTrace, m *manifest.Manifest) ([]byte, dist.CoordinatorStatus, error) {
	tr := t.tr
	coord := &dist.Coordinator{Workers: f.addrs, ChunkTarget: fleetChunkTarget, Dial: tr.dial}
	ctx := context.Background()
	out := filepath.Join(f.dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, dist.CoordinatorStatus{}, err
	}
	msp := tr.begin("manifest", t.root.id)
	rep := manifest.Report{Name: m.Name}
	var journal []manifest.ConvergenceRound
	for idx, e := range m.Entries {
		cfg, err := e.Config()
		if err != nil {
			return nil, dist.CoordinatorStatus{}, err
		}
		baseSeed := m.Seed + uint64(idx)*1_000_000
		sp := tr.begin("dist.job", msp.id)
		pop, err := coord.GeneratePopulationCtx(ctx, e.Benchmark, cfg, m.Scale, m.Runs, baseSeed,
			population.RunHooks{OnRunDone: func(_ int, _ uint64, res *sim.Result, err error, elapsed time.Duration) {
				if err == nil && res != nil {
					tr.simRun(elapsed, 0)
				}
			}})
		tr.job(sp.end(map[string]any{"entry": e.Key(), "runs": m.Runs}))
		if err != nil {
			return nil, dist.CoordinatorStatus{}, err
		}
		path := filepath.Join(out, fmt.Sprintf("%s-%s.json", m.Name, e.Key()))
		if err := manifest.WriteFileAtomic(path, pop.Save); err != nil {
			return nil, dist.CoordinatorStatus{}, err
		}
		for _, a := range m.Analyses {
			var res manifest.AnalysisResult
			if a.Adaptive() {
				res, err = t.adaptive(ctx, coord, msp.id, m, e, cfg, baseSeed, a)
				if err != nil {
					return nil, dist.CoordinatorStatus{}, err
				}
				journal = append(journal, res.Rounds...)
			} else {
				res = fixedResult(e, a, pop)
			}
			rep.Results = append(rep.Results, res)
		}
	}
	if len(journal) > 0 {
		err := manifest.WriteFileAtomic(filepath.Join(out, m.Name+"-telemetry.jsonl"), func(w io.Writer) error {
			enc := json.NewEncoder(w)
			for _, rec := range journal {
				if err := enc.Encode(rec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, dist.CoordinatorStatus{}, err
		}
	}
	body, err := encodeReport(&rep)
	if err != nil {
		return nil, dist.CoordinatorStatus{}, err
	}
	err = manifest.WriteFileAtomic(filepath.Join(out, m.Name+"-report.json"),
		func(w io.Writer) error { _, err := w.Write(body); return err })
	msp.end(map[string]any{"name": m.Name})
	return body, coord.Status(), err
}

// adaptive is manifest.Runner's adaptive analysis with timing wrappers.
func (t *fleetTrace) adaptive(ctx context.Context, coord *dist.Coordinator, parent int64, m *manifest.Manifest,
	e manifest.Entry, cfg sim.Config, baseSeed uint64, a manifest.Analysis) (manifest.AnalysisResult, error) {
	tr := t.tr
	res := manifest.AnalysisResult{Entry: e.Key(), Metric: a.Metric, F: a.F, C: a.C,
		Direction: a.Direction, TargetWidth: a.TargetWidth}
	if res.Direction == "" {
		res.Direction = "atmost"
	}
	sp := tr.begin("core.analyze_to_width", parent)
	p, err := a.Params()
	if err != nil {
		return res, err
	}
	full := &timedCollector{t: t, parent: sp.id,
		c: coord.CollectorCtx(ctx, dist.Job{Benchmark: e.Benchmark, Config: cfg, Scale: m.Scale}, a.Metric)}
	var col core.Collector = plainCollector{full}
	design, err := sampling.ParseDesign(a.Sampling)
	if err != nil {
		return res, err
	}
	var dcol *sampling.Collector
	if design != sampling.Plain {
		pilotScale := a.PilotScale
		if pilotScale == 0 {
			pilotScale = m.Scale / 2
		}
		pilotCol := coord.CollectorCtx(ctx, dist.Job{Benchmark: e.Benchmark, Config: cfg, Scale: pilotScale}, a.Metric)
		pilot := func(base uint64, n int) ([]float64, error) {
			psp := tr.begin("sampling.pilot", sp.id)
			vals, err := pilotCol.Collect(base, n, 0, t.runHooks())
			d := psp.end(map[string]any{"runs": n})
			tr.job(d)
			t.add(func() { t.pilot += d; t.pilotRuns += n })
			return vals, err
		}
		alloc, err := sampling.ParseAllocation(a.SamplingAllocation)
		if err != nil {
			return res, err
		}
		dcol, err = sampling.New(sampling.Options{
			Design: design, Strata: a.SamplingStrata, Allocation: alloc, PilotBlock: a.PilotRuns,
			Fidelity: a.Fidelity, Metric: a.Metric,
			Recipe: popcache.Key{Benchmark: e.Benchmark, Config: cfg, Scale: m.Scale,
				PilotScale: pilotScale, ProxyMetric: a.Metric},
		}, full, pilot)
		if err != nil {
			return res, err
		}
		full.backing = true
		col = designCollector{dcol, t}
		res.Sampling = design.String()
	}
	round := 0
	hooks := t.runHooks()
	hooks.OnRound = func(samples int, width float64) {
		round++
		res.Rounds = append(res.Rounds, manifest.ConvergenceRound{Entry: res.Entry, Metric: a.Metric,
			Round: round, Samples: samples, Width: width, Target: a.TargetWidth})
	}
	an, err := core.AnalyzeToWidthWith(col, p, core.WidthOptions{
		TargetWidth: a.TargetWidth, GrowBatch: a.GrowBatch, MaxSamples: a.MaxSamples,
		BaseSeed: baseSeed, Hooks: hooks})
	switch {
	case err == nil:
		res.Converged = true
	case errors.Is(err, core.ErrWidthBudget):
	default:
		res.Err = err.Error()
		sp.end(map[string]any{"error": res.Err})
		return res, nil
	}
	res.Samples = len(an.Samples)
	res.Interval = an.Interval
	if dcol != nil {
		res.PilotRuns = dcol.Stats().PilotRuns
	}
	t.add(func() { t.rounds += round })
	sp.end(map[string]any{"entry": res.Entry, "sampling": res.Sampling, "rounds": round, "samples": res.Samples})
	return res, nil
}

// timedCollector wraps the coordinator's full-scale collector: each Collect
// is one coordinator job.
type timedCollector struct {
	c       core.Collector
	t       *fleetTrace
	parent  int64
	backing bool // called by a design collector, not by the adaptive loop
}

func (c *timedCollector) Collect(base uint64, n, batch int, h core.Hooks) ([]float64, error) {
	sp := c.t.tr.begin("dist.job", c.parent)
	vals, err := c.c.Collect(base, n, batch, h)
	d := sp.end(map[string]any{"runs": n})
	c.t.tr.job(d)
	if c.backing {
		c.t.add(func() { c.t.backingCalls++ })
	}
	return vals, err
}

// plainCollector is the plain design as core builds it — the
// order-statistic interval over a consecutive seed range — with the
// collection and the interval timed.
type plainCollector struct{ c *timedCollector }

func (p plainCollector) Collect(base uint64, n, batch int, h core.Hooks) ([]float64, error) {
	t0 := time.Now()
	vals, err := p.c.Collect(base, n, batch, h)
	p.c.t.add(func() { p.c.t.collect += time.Since(t0) })
	return vals, err
}

func (p plainCollector) DesignInterval(samples []float64, q core.Params) (stats.Interval, error) {
	t0 := time.Now()
	iv, err := core.ConfidenceInterval(samples, q)
	p.c.t.add(func() { p.c.t.interval += time.Since(t0) })
	return iv, err
}

func (p plainCollector) DesignMinSamples(q core.Params) (int, error) { return core.CIMinSamples(q) }

// designCollector times a sampling design's collection and interval.
type designCollector struct {
	d *sampling.Collector
	t *fleetTrace
}

func (c designCollector) Collect(base uint64, n, batch int, h core.Hooks) ([]float64, error) {
	t0 := time.Now()
	vals, err := c.d.Collect(base, n, batch, h)
	c.t.add(func() { c.t.collect += time.Since(t0) })
	return vals, err
}

func (c designCollector) DesignInterval(samples []float64, q core.Params) (stats.Interval, error) {
	t0 := time.Now()
	iv, err := c.d.DesignInterval(samples, q)
	c.t.add(func() { c.t.interval += time.Since(t0) })
	return iv, err
}

func (c designCollector) DesignMinSamples(q core.Params) (int, error) { return c.d.DesignMinSamples(q) }

// layers derives the fleet's per-layer metrics.
func (t *fleetTrace) layers(st fleetStats, served int64, busy float64, makespan time.Duration) {
	tr := t.tr
	tr.simLayer()
	tr.count("core.rounds", int64(t.rounds))
	tr.set("core.collect_s", t.collect.Seconds())
	tr.set("core.interval_ms", float64(t.interval)/1e6)
	tr.count("sampling.pilot_runs", int64(t.pilotRuns))
	tr.set("sampling.pilot_s", t.pilot.Seconds())
	if t.pilotRuns > 0 {
		tr.set("sampling.pilot_ms_per_run", float64(t.pilot)/1e6/float64(t.pilotRuns))
	}
	tr.count("sampling.backing_calls", int64(t.backingCalls))
	tr.count("dist.jobs", int64(st.jobs))
	tr.count("dist.dials", tr.dials.Load())
	tr.mu.Lock()
	connP50 := quantile(tr.connMS, 0.5)
	jobP50, jobP90 := quantile(tr.jobMS, 0.5), quantile(tr.jobMS, 0.9)
	tr.mu.Unlock()
	tr.set("dist.connect_ms_p50", connP50)
	tr.set("dist.chunks", float64(st.chunks))
	if st.chunks > 0 {
		tr.set("dist.runs_per_chunk", float64(st.runs)/float64(st.chunks))
	}
	if st.runs > 0 {
		tr.set("dist.frames_per_run", float64(tr.wireFrames.Load())/float64(st.runs))
		tr.set("dist.wire_bytes_per_run", float64(tr.wireBytes.Load())/float64(st.runs))
	}
	tr.set("dist.job_ms_p50", jobP50)
	tr.set("dist.job_ms_p90", jobP90)
	tr.set("dist.idle_frac", 1-busy/(makespan.Seconds()*fleetWorkers))
	tr.count("dist.redispatches", int64(st.redispatches))
	tr.count("dist.local_chunks", int64(st.local))
	if int64(len(tr.runMS)) != served {
		tr.problems = append(tr.problems, fmt.Sprintf("hooks saw %d runs, workers served %d", len(tr.runMS), served))
	}
}
