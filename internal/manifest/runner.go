package manifest

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
	"repro/internal/obs"
	"repro/internal/popcache"
	"repro/internal/population"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AnalysisResult is one (entry, analysis) outcome.
type AnalysisResult struct {
	Entry     string         `json:"entry"`
	Metric    string         `json:"metric"`
	F         float64        `json:"f"`
	C         float64        `json:"c"`
	Direction string         `json:"direction"`
	Samples   int            `json:"samples"`
	Interval  stats.Interval `json:"interval"`
	// Sampling names the variance-reduction design an adaptive analysis
	// collected under ("stratified", "rss"); empty for plain collection.
	Sampling string `json:"sampling,omitempty"`
	// PilotRuns counts the pilot (proxy) executions the design spent on
	// top of Samples full-scale runs; zero for plain collection.
	PilotRuns int `json:"pilot_runs,omitempty"`
	// TargetWidth/Converged/Rounds describe an adaptive analysis: the
	// width it refined toward, whether it got there before the sample
	// budget ran out, and the per-round convergence trajectory. Empty for
	// fixed-population analyses.
	TargetWidth float64            `json:"target_width,omitempty"`
	Converged   bool               `json:"converged,omitempty"`
	Rounds      []ConvergenceRound `json:"rounds,omitempty"`
	// Err carries a per-analysis failure (e.g. metric missing) without
	// aborting the rest of the campaign.
	Err string `json:"error,omitempty"`
}

// ConvergenceRound is one refinement step of an adaptive analysis: after
// Samples executions the SPA interval was Width wide against Target.
// The same records, tagged with their entry and metric, make up the
// campaign's telemetry journal.
type ConvergenceRound struct {
	Entry   string  `json:"entry,omitempty"`
	Metric  string  `json:"metric,omitempty"`
	Round   int     `json:"round"`
	Samples int     `json:"samples"`
	Width   float64 `json:"width"`
	Target  float64 `json:"target"`
}

// Report is the campaign outcome.
type Report struct {
	Name    string           `json:"name"`
	Results []AnalysisResult `json:"results"`
	// Reused lists entries whose populations were loaded from disk or the
	// cache rather than re-simulated (the resume path). It is not part of
	// the report file, whose bytes depend on the manifest alone.
	Reused []string `json:"-"`
}

// Hooks are optional campaign-progress callbacks, fired synchronously
// from the runner's goroutine. The campaign service journals per-entry
// progress and live convergence rounds through them; they observe only
// and must not mutate the manifest or the report.
type Hooks struct {
	// OnEntryStart fires before an entry's population is loaded or
	// simulated.
	OnEntryStart func(idx int, key string)
	// OnEntryDone fires after an entry's population is ready (or failed);
	// reused marks the resume/cache path.
	OnEntryDone func(idx int, key string, reused bool, err error)
	// OnConvergenceRound fires once per adaptive refinement round, as it
	// happens — the live view of what the telemetry journal records at
	// the end.
	OnConvergenceRound func(rec ConvergenceRound)
}

// Runner executes manifests. Its fields choose where and how a campaign
// runs, never what it reports: a report is a function of its manifest.
type Runner struct {
	// OutDir receives per-entry population JSONs and the report; it is
	// created if missing.
	OutDir string
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Obs receives campaign telemetry: progress lines and per-run ticks
	// through its Progress, per-run/per-analysis spans through its
	// Tracer, and counters/histograms through its Metrics. Nil (or any
	// nil field) disables that backend. It replaces the old ad-hoc Log
	// writer; for plain progress lines use obs.NewProgress on a writer.
	Obs *obs.Observer
	// Workers are spaworker addresses (host:port). When non-empty,
	// populations are simulated across them via internal/dist; the
	// results are byte-identical to a local campaign with the same
	// manifest seed (unreachable workers degrade to local execution).
	Workers []string
	// Dial optionally replaces the coordinator's TCP dialer when Workers
	// is non-empty — the seam tests and benchmarks use to inject faults
	// or count connections. Nil uses the real network.
	Dial dist.DialFunc
	// ChunkTarget is the wall time each remote chunk of the lazily
	// created coordinator is sized to take at the worker's observed run
	// rate (0 = 250ms, see dist.Coordinator). Ignored when Source
	// injects a coordinator.
	ChunkTarget time.Duration
	// PopCache, when non-nil, is consulted before simulating an entry and
	// fed after. It is content-addressed by the full generation recipe, so
	// a hit is byte-identical to re-simulating; unlike the per-campaign
	// OutDir resume files it is shared across campaigns and manifests.
	// Variance-reduction designs also route their pilot populations and
	// cumulative measured populations through it, which is what makes a
	// repeated design campaign nearly free. Ignored when Source is set.
	PopCache *popcache.Cache
	// Source, when non-nil, supplies every population (entries and pilot
	// blocks) and backs the design collectors with its cache; its
	// coordinator, if any, also runs adaptive collection. The campaign
	// service injects one shared by every tenant. Nil uses PopCache.
	Source *popcache.Source
	// Hooks receive per-entry and convergence-round progress callbacks.
	Hooks Hooks

	// coord is the shared dist coordinator behind both worker-backed
	// population generation and adaptive collection; sharing one instance
	// is what lets per-worker telemetry and /statusz chunk accounting
	// accumulate across the whole campaign.
	coordMu sync.Mutex
	coord   *dist.Coordinator
	// src is the Source over PopCache built on first use when none is
	// injected, so every entry and pilot block of the campaign shares
	// its flights and its executor.
	srcOnce sync.Once
	src     *popcache.Source
}

// Coordinator returns the runner's shared coordinator, creating it on
// first call — CLIs install it as their /statusz source before Run. With
// no Workers configured it degrades to a purely local runner, so it is
// never nil.
func (r *Runner) Coordinator() *dist.Coordinator {
	if r.Source != nil && r.Source.Coord != nil {
		return r.Source.Coord
	}
	r.coordMu.Lock()
	defer r.coordMu.Unlock()
	if r.coord == nil {
		r.coord = &dist.Coordinator{Workers: r.Workers, Parallelism: r.Parallelism, ChunkTarget: r.ChunkTarget, Obs: r.Obs, Dial: r.Dial}
	}
	return r.coord
}

// source returns the injected Source, or the runner's one Source over
// PopCache, local without Workers.
func (r *Runner) source() *popcache.Source {
	if r.Source != nil {
		return r.Source
	}
	r.srcOnce.Do(func() {
		r.src = &popcache.Source{Cache: r.PopCache, Parallelism: r.Parallelism, Obs: r.Obs}
		if len(r.Workers) > 0 {
			r.src.Coord = r.Coordinator()
		}
	})
	return r.src
}

func (r *Runner) logf(format string, args ...any) {
	r.Obs.Logf(format, args...)
}

// popPath is the population file for an entry.
func (r *Runner) popPath(m *Manifest, e Entry) string {
	return filepath.Join(r.OutDir, fmt.Sprintf("%s-%s.json", m.Name, e.key()))
}

// ReportPath is the report file the campaign writes.
func (r *Runner) ReportPath(m *Manifest) string {
	return m.ReportPath(r.OutDir)
}

// TelemetryPath is the convergence journal the campaign writes next to
// the report when it ran adaptive analyses: one JSON object per line,
// one line per refinement round (see ConvergenceRound). benchreport
// -telemetry renders it.
func (r *Runner) TelemetryPath(m *Manifest) string {
	return filepath.Join(r.OutDir, fmt.Sprintf("%s-telemetry.jsonl", m.Name))
}

// Run executes the campaign: simulate (or load) every entry's population,
// run every analysis on it, and persist the report. Individual analysis
// failures are recorded in the report rather than aborting.
func (r *Runner) Run(m *Manifest) (*Report, error) {
	return r.RunContext(context.Background(), m)
}

// RunContext is Run with cooperative cancellation: the campaign stops at
// the next entry or analysis, and a generation in progress launches no
// further run, whether in-process or through a coordinator, returning
// the context's error. Entry populations already persisted stay on disk,
// so a later RunContext with the same manifest resumes exactly where this
// one stopped.
func (r *Runner) RunContext(ctx context.Context, m *Manifest) (*Report, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if r.OutDir == "" {
		return nil, errors.New("manifest: runner needs an output directory")
	}
	if err := os.MkdirAll(r.OutDir, 0o755); err != nil {
		return nil, err
	}
	report := &Report{Name: m.Name}
	campaign := r.Obs.T().StartSpan("campaign", obs.Str("name", m.Name),
		obs.Int("entries", len(m.Entries)), obs.Int("analyses", len(m.Analyses)))
	defer campaign.End()

	var journal []ConvergenceRound
	for i, e := range m.Entries {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("manifest: campaign interrupted before entry %s: %w", e.key(), err)
		}
		if r.Hooks.OnEntryStart != nil {
			r.Hooks.OnEntryStart(i, e.key())
		}
		pop, reused, err := r.loadOrGenerate(ctx, m, e, i)
		if r.Hooks.OnEntryDone != nil {
			r.Hooks.OnEntryDone(i, e.key(), reused, err)
		}
		if err != nil {
			return nil, fmt.Errorf("manifest: entry %s: %w", e.key(), err)
		}
		if reused {
			report.Reused = append(report.Reused, e.key())
		}
		for _, a := range m.Analyses {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("manifest: campaign interrupted during entry %s: %w", e.key(), err)
			}
			var res AnalysisResult
			if a.Adaptive() {
				res = r.AnalyzeAdaptive(ctx, m, i, a)
				if res.Err != "" && ctx.Err() != nil {
					// A cancelled adaptive collection is an interruption,
					// not a campaign result.
					return nil, fmt.Errorf("manifest: campaign interrupted during entry %s: %w", e.key(), ctx.Err())
				}
				journal = append(journal, res.Rounds...)
			} else {
				res = r.analyze(e, a, pop)
			}
			report.Results = append(report.Results, res)
		}
	}

	if len(journal) > 0 {
		err := WriteFileAtomic(r.TelemetryPath(m), func(w io.Writer) error {
			enc := json.NewEncoder(w)
			for _, rec := range journal {
				if err := enc.Encode(rec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		r.logf("convergence journal written to %s", r.TelemetryPath(m))
	}

	err := WriteFileAtomic(r.ReportPath(m), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(report)
	})
	if err != nil {
		return nil, err
	}
	r.logf("report written to %s", r.ReportPath(m))
	return report, nil
}

// WriteFileAtomic writes via a temp file in the same directory and
// renames it into place, propagating Close errors — so a short write (a
// full disk, a crash mid-campaign) never leaves a truncated file that
// the resume path would later load as a valid population.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Dir(path), filepath.Base(path)
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// analyze runs one analysis on an entry's population, recording a span
// and the CI construction metrics.
func (r *Runner) analyze(e Entry, a Analysis, pop *population.Population) AnalysisResult {
	res := AnalysisResult{
		Entry: e.key(), Metric: a.Metric, F: a.F, C: a.C,
		Direction: a.Direction,
	}
	if res.Direction == "" {
		res.Direction = "atmost"
	}
	span := r.Obs.T().StartSpan("campaign.analysis", obs.Str("entry", res.Entry),
		obs.Str("metric", a.Metric), obs.F64("f", a.F), obs.F64("c", a.C))
	fail := func(err error) AnalysisResult {
		res.Err = err.Error()
		r.Obs.CIBuilt("SPA", 0, err)
		span.End(obs.Str("error", res.Err))
		return res
	}
	p, err := a.Params()
	if err != nil {
		return fail(err)
	}
	xs, err := pop.Metric(a.Metric)
	if err != nil {
		return fail(err)
	}
	res.Samples = len(xs)
	iv, err := core.ConfidenceInterval(xs, p)
	if err != nil {
		return fail(err)
	}
	res.Interval = iv
	r.Obs.CIBuilt("SPA", iv.Width(), nil)
	span.End(obs.Int("samples", res.Samples), obs.F64("width", iv.Width()))
	return res
}

// AnalyzeAdaptive runs adaptive analysis a on entry idx of m, which must
// have passed Validate: it re-collects the entry's seed range through the
// shared coordinator (workers when configured, in-process otherwise),
// under a's sampling design, until the SPA interval narrows to the
// target width, recording a convergence round — trace event, labeled
// gauges, OnConvergenceRound hook, entry in the result's Rounds — per
// refinement step. Seeds are the entry's own base-seed range, so the
// result is a function of m and a alone. A failure is reported in the
// result's Err.
func (r *Runner) AnalyzeAdaptive(ctx context.Context, m *Manifest, idx int, a Analysis) AnalysisResult {
	e, scale := m.Entries[idx], m.scale()
	res := AnalysisResult{
		Entry: e.key(), Metric: a.Metric, F: a.F, C: a.C,
		Direction: a.Direction, TargetWidth: a.TargetWidth,
	}
	if res.Direction == "" {
		res.Direction = "atmost"
	}
	span := r.Obs.T().StartSpan("campaign.analysis_adaptive", obs.Str("entry", res.Entry),
		obs.Str("metric", a.Metric), obs.F64("f", a.F), obs.F64("c", a.C),
		obs.F64("target_width", a.TargetWidth))
	fail := func(err error) AnalysisResult {
		res.Err = err.Error()
		r.Obs.CIBuilt("SPA", 0, err)
		span.End(obs.Str("error", res.Err))
		return res
	}
	p, err := a.Params()
	if err != nil {
		return fail(err)
	}
	cfg, err := e.Config()
	if err != nil {
		return fail(err)
	}
	baseSeed := m.EntrySeed(idx)
	job := dist.Job{Benchmark: e.Benchmark, Config: cfg, Scale: scale}
	var col core.Collector = r.Coordinator().CollectorCtx(ctx, job, a.Metric)
	design, dcol, err := r.designCollector(ctx, e, a, cfg, scale, col)
	if err != nil {
		return fail(err)
	}
	if dcol != nil {
		col = dcol
		res.Sampling = design.String()
	}
	round := 0
	hooks := core.Hooks{
		OnRound: func(samples int, width float64) {
			round++
			rec := ConvergenceRound{
				Entry: res.Entry, Metric: a.Metric,
				Round: round, Samples: samples, Width: width, Target: a.TargetWidth,
			}
			res.Rounds = append(res.Rounds, rec)
			r.Obs.ConvergenceRound(res.Entry, a.Metric, "SPA", samples, width, a.TargetWidth)
			if r.Hooks.OnConvergenceRound != nil {
				r.Hooks.OnConvergenceRound(rec)
			}
		},
	}
	an, err := core.AnalyzeToWidthWith(col, p, core.WidthOptions{
		TargetWidth: a.TargetWidth, GrowBatch: a.GrowBatch,
		MaxSamples: a.MaxSamples, Batch: r.Parallelism,
		BaseSeed: baseSeed, Hooks: hooks,
	})
	switch {
	case err == nil:
		res.Converged = true
	case errors.Is(err, core.ErrWidthBudget):
		// The widest-effort interval is still usable; Converged stays
		// false to record the budget miss.
	default:
		return fail(err)
	}
	res.Samples = len(an.Samples)
	res.Interval = an.Interval
	if dcol != nil {
		res.PilotRuns = dcol.Stats().PilotRuns
	}
	r.Obs.CIBuilt("SPA", an.Interval.Width(), nil)
	span.End(obs.Int("samples", res.Samples), obs.F64("width", an.Interval.Width()),
		obs.Int("rounds", round), obs.Bool("converged", res.Converged),
		obs.Str("sampling", res.Sampling), obs.Int("pilot_runs", res.PilotRuns))
	return res
}

// designCollector builds the variance-reduction collector for an
// adaptive analysis, or returns nil when its design is plain.
// Each pilot block is the full population of the same benchmark at a
// reduced scale, fetched through the runner's Source under its plain
// recipe — so it is shared with anything else running that recipe — and
// the cumulative measured population is cached under the design recipe,
// so a repeated campaign re-ranks and re-selects without simulating.
func (r *Runner) designCollector(ctx context.Context, e Entry, a Analysis, cfg sim.Config, scale float64, full core.Collector) (sampling.Design, *sampling.Collector, error) {
	design, err := sampling.ParseDesign(a.Sampling)
	if err != nil {
		return sampling.Plain, nil, err
	}
	if design == sampling.Plain {
		return design, nil, nil
	}
	pilotScale := a.PilotScale
	if pilotScale == 0 {
		pilotScale = scale / 2
	}
	src := r.source()
	alloc, err := sampling.ParseAllocation(a.SamplingAllocation)
	if err != nil {
		return design, nil, err
	}
	dcol, err := sampling.New(sampling.Options{
		Design:     design,
		Strata:     a.SamplingStrata,
		Allocation: alloc,
		PilotBlock: a.PilotRuns,
		Fidelity:   a.Fidelity,
		Metric:     a.Metric,
		Cache:      src.Cache,
		Recipe: popcache.Key{Benchmark: e.Benchmark, Config: cfg, Scale: scale,
			PilotScale: pilotScale, ProxyMetric: a.Metric},
	}, full, src.Pilot(ctx, popcache.Key{Benchmark: e.Benchmark, Config: cfg, Scale: pilotScale}, a.Metric))
	if err != nil {
		return design, nil, err
	}
	return design, dcol, nil
}

// StaleOutputError reports an output-directory population file of another
// recipe, such as one an edited manifest left behind.
type StaleOutputError struct {
	Path string
	Err  error // how the file differs from the entry's recipe
}

func (e *StaleOutputError) Error() string {
	return fmt.Sprintf("manifest: %s is not this manifest's population (%v); remove it or use another output directory", e.Path, e.Err)
}

func (e *StaleOutputError) Unwrap() error { return e.Err }

// loadOrGenerate resumes an entry's population from disk or gets it from
// the runner's Source.
func (r *Runner) loadOrGenerate(ctx context.Context, m *Manifest, e Entry, idx int) (*population.Population, bool, error) {
	runs, baseSeed := m.EntryRuns(e), m.EntrySeed(idx)
	path := r.popPath(m, e)
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		pop, err := population.Load(f)
		if err != nil {
			return nil, false, fmt.Errorf("resuming from %s: %w", path, err)
		}
		if err := pop.CheckRecipe(e.Benchmark, baseSeed, runs); err != nil {
			return nil, false, &StaleOutputError{Path: path, Err: err}
		}
		r.logf("reusing %s (%d runs)", path, pop.Runs)
		r.Obs.M().Counter(obs.MetricEntriesReused).Inc()
		r.Obs.T().Event("campaign.reused", obs.Str("entry", e.key()), obs.Int("runs", pop.Runs))
		return pop, true, nil
	}
	cfg, err := e.Config()
	if err != nil {
		return nil, false, err
	}
	pop, hit, err := r.source().Population(ctx, popcache.Key{Benchmark: e.Benchmark, Config: cfg, Scale: m.scale(), BaseSeed: baseSeed, Runs: runs})
	if err != nil {
		return nil, false, err
	}
	if hit {
		r.logf("population cache hit for %s (%d runs)", e.key(), pop.Runs)
		r.Obs.M().Counter(obs.MetricEntriesReused).Inc()
		r.Obs.T().Event("campaign.cache_hit", obs.Str("entry", e.key()), obs.Int("runs", pop.Runs))
	}
	if err := WriteFileAtomic(path, pop.Save); err != nil {
		return nil, false, err
	}
	return pop, hit, nil
}

// Render writes the report as an aligned text table.
func (rep *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "campaign %s: %d results", rep.Name, len(rep.Results))
	if len(rep.Reused) > 0 {
		fmt.Fprintf(w, " (%d populations reused)", len(rep.Reused))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-24s %-18s %-5s %-5s %-8s %-14s %s\n",
		"entry", "metric", "F", "C", "dir", "lo", "hi")
	for _, res := range rep.Results {
		if res.Err != "" {
			fmt.Fprintf(w, "%-24s %-18s %-5g %-5g %-8s error: %s\n",
				res.Entry, res.Metric, res.F, res.C, res.Direction, res.Err)
			continue
		}
		note := ""
		if res.TargetWidth > 0 {
			mode := "adaptive"
			if res.Sampling != "" {
				mode += "/" + res.Sampling
			}
			note = fmt.Sprintf("  [%s: hit budget]", mode)
			if res.Converged {
				note = fmt.Sprintf("  [%s: converged in %d rounds]", mode, len(res.Rounds))
			}
		}
		fmt.Fprintf(w, "%-24s %-18s %-5g %-5g %-8s %-14.6g %.6g%s\n",
			res.Entry, res.Metric, res.F, res.C, res.Direction,
			res.Interval.Lo, res.Interval.Hi, note)
	}
}
