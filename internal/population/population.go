// Package population manages run campaigns and their results: generating a
// benchmark's population of executions in parallel (Sec. 5.3 uses 500 runs
// per benchmark as ground truth), extracting metric vectors, computing
// ground-truth proportion values, drawing trial samples, and forming
// speedup samples by randomly pairing base and improved executions
// (Sec. 5.2).
package population

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Population is the result set of one campaign: per-metric value vectors
// indexed by run (seed order), so campaigns are replicable.
type Population struct {
	Benchmark string               `json:"benchmark"`
	Runs      int                  `json:"runs"`
	BaseSeed  uint64               `json:"base_seed"`
	Metrics   map[string][]float64 `json:"metrics"`
}

// RunHooks are optional per-execution callbacks for GenerateHooked, the
// attachment points for the observability layer. Either field may be nil;
// both may be called from many goroutines concurrently. Hooks only
// observe — the simulation RNG is seeded before they fire, so telemetry
// cannot perturb determinism.
type RunHooks struct {
	OnRunStart func(i int, seed uint64)
	OnRunDone  func(i int, seed uint64, res *sim.Result, err error, elapsed time.Duration)
}

// ObserverHooks adapts an obs.Observer into RunHooks: run counters, the
// duration histogram, a progress tick and a "sim.run" span per execution.
// A nil observer yields zero hooks.
func ObserverHooks(o *obs.Observer, benchmark string) RunHooks {
	if o == nil {
		return RunHooks{}
	}
	return RunHooks{
		OnRunStart: func(i int, seed uint64) { o.RunStarted() },
		OnRunDone: func(i int, seed uint64, res *sim.Result, err error, elapsed time.Duration) {
			var cycles uint64
			if res != nil {
				cycles = res.Cycles
			}
			o.RunDone(benchmark, seed, cycles, err, time.Time{}, elapsed)
		},
	}
}

// Generate runs the benchmark `runs` times with seeds baseSeed+i on the
// given configuration, in parallel (parallelism ≤ 0 selects GOMAXPROCS),
// and collects every scalar metric. Results are ordered by seed offset.
func Generate(benchmark string, cfg sim.Config, scale float64, runs int, baseSeed uint64, parallelism int) (*Population, error) {
	return GenerateHooked(benchmark, cfg, scale, runs, baseSeed, parallelism, RunHooks{})
}

// GenerateHooked is Generate with per-execution observability callbacks.
//
// Runs execute on a fixed pool of workers, each owning one reusable
// sim.Runner arena: run i always computes from seed baseSeed+i into slot i,
// so results are independent of which worker picks up which run, and each
// worker's machine allocations are paid once rather than per run.
func GenerateHooked(benchmark string, cfg sim.Config, scale float64, runs int, baseSeed uint64, parallelism int, h RunHooks) (*Population, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("population: non-positive run count %d", runs)
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > runs {
		parallelism = runs
	}
	observed := h.OnRunStart != nil || h.OnRunDone != nil
	results := make([]*sim.Result, runs)
	errs := make([]error, runs)
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner := sim.NewRunner()
			for i := range indices {
				seed := baseSeed + uint64(i)
				if !observed {
					results[i], errs[i] = runner.Run(benchmark, cfg, scale, seed)
					continue
				}
				if h.OnRunStart != nil {
					h.OnRunStart(i, seed)
				}
				start := time.Now()
				results[i], errs[i] = runner.Run(benchmark, cfg, scale, seed)
				if h.OnRunDone != nil {
					h.OnRunDone(i, seed, results[i], errs[i], time.Since(start))
				}
			}
		}()
	}
	for i := 0; i < runs; i++ {
		indices <- i
	}
	close(indices)
	wg.Wait()
	var failures []error
	for i, err := range errs {
		if err != nil {
			failures = append(failures, fmt.Errorf("population: run %d of %s: %w", i, benchmark, err))
		}
	}
	if len(failures) > 0 {
		return nil, errors.Join(failures...)
	}
	metrics := make([]map[string]float64, runs)
	for i, res := range results {
		metrics[i] = res.Metrics
	}
	return FromRuns(benchmark, baseSeed, metrics), nil
}

// FromRuns assembles a population from per-run scalar metric maps
// ordered by seed offset. Local generation and the distributed
// coordinator (internal/dist) both build populations through this one
// path, which is what makes a distributed campaign byte-identical to a
// local one for the same base seed.
func FromRuns(benchmark string, baseSeed uint64, runs []map[string]float64) *Population {
	pop := &Population{
		Benchmark: benchmark,
		Runs:      len(runs),
		BaseSeed:  baseSeed,
		Metrics:   make(map[string][]float64),
	}
	for _, m := range runs {
		for name, v := range m {
			pop.Metrics[name] = append(pop.Metrics[name], v)
		}
	}
	return pop
}

// FromValues builds a population directly from a metric vector, for
// analyses of externally produced data (the SPA CLI path).
func FromValues(name, metric string, values []float64) *Population {
	return &Population{
		Benchmark: name,
		Runs:      len(values),
		Metrics:   map[string][]float64{metric: append([]float64(nil), values...)},
	}
}

// CheckRecipe reports how p differs from the population of runs seeds of
// benchmark from baseSeed, or nil; populations read from disk pass it.
func (p *Population) CheckRecipe(benchmark string, baseSeed uint64, runs int) error {
	if p.Benchmark != benchmark || p.BaseSeed != baseSeed || p.Runs != runs || p.Metrics == nil {
		return fmt.Errorf("population: %d runs of %q from seed %d with %d metrics, want %d runs of %q from seed %d",
			p.Runs, p.Benchmark, p.BaseSeed, len(p.Metrics), runs, benchmark, baseSeed)
	}
	for name, vs := range p.Metrics {
		if len(vs) != runs {
			return fmt.Errorf("population: metric %q has %d values for %d runs", name, len(vs), runs)
		}
	}
	return nil
}

// Metric returns the population's value vector for a metric.
func (p *Population) Metric(name string) ([]float64, error) {
	vs, ok := p.Metrics[name]
	if !ok {
		names := make([]string, 0, len(p.Metrics))
		for n := range p.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("population: no metric %q (have %v)", name, names)
	}
	return vs, nil
}

// GroundTruth returns the population's F-proportion value for a metric —
// the paper's definition of the "correct" value a CI should cover
// (Sec. 5.3): the smallest value v such that at least an F fraction of the
// population is ≤ v.
func (p *Population) GroundTruth(metric string, f float64) (float64, error) {
	vs, err := p.Metric(metric)
	if err != nil {
		return 0, err
	}
	return stats.Quantile(vs, f)
}

// Sample draws n values for a metric with replacement, using the supplied
// stream — one evaluation trial (Sec. 5.4 draws 22).
func (p *Population) Sample(metric string, n int, r *randx.Rand) ([]float64, error) {
	vs, err := p.Metric(metric)
	if err != nil {
		return nil, err
	}
	if len(vs) == 0 {
		return nil, errors.New("population: empty metric vector")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = vs[r.Intn(len(vs))]
	}
	return out, nil
}

// Rounded returns a copy of the population with every metric rounded to
// the given number of decimals — the Fig. 15 protocol that provokes
// bootstrap failures through duplicate data.
func (p *Population) Rounded(places int) *Population {
	out := &Population{
		Benchmark: p.Benchmark,
		Runs:      p.Runs,
		BaseSeed:  p.BaseSeed,
		Metrics:   make(map[string][]float64, len(p.Metrics)),
	}
	for name, vs := range p.Metrics {
		out.Metrics[name] = stats.Round(vs, places)
	}
	return out
}

// Speedups forms n speedup samples by randomly drawing one execution from
// the base population and one from the improved population and dividing
// their runtimes (base/improved), exactly as the paper does for speedup
// analyses (Sec. 5.2).
func Speedups(base, improved []float64, n int, r *randx.Rand) ([]float64, error) {
	if len(base) == 0 || len(improved) == 0 {
		return nil, errors.New("population: empty speedup inputs")
	}
	out := make([]float64, n)
	for i := range out {
		b := base[r.Intn(len(base))]
		im := improved[r.Intn(len(improved))]
		if im == 0 {
			return nil, errors.New("population: zero improved runtime")
		}
		out[i] = b / im
	}
	return out, nil
}

// Save writes the population as JSON.
func (p *Population) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// Load reads a population saved with Save.
func Load(r io.Reader) (*Population, error) {
	var p Population
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("population: decoding: %w", err)
	}
	if p.Metrics == nil {
		return nil, errors.New("population: file has no metrics")
	}
	return &p, nil
}
