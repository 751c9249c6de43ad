package population

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// MaxRuns bounds every run count a population is built from: a manifest's
// counts, a CLI's -runs, a coordinator job. Callers size arrays by the
// count before the first run, so one huge value would crash the process,
// and a journaled one every restart of the campaign service.
const MaxRuns = 1 << 20

// Executor runs seeded simulations in-process on a fixed set of reusable
// sim.Runner arenas. The arenas double as the CPU budget: a run holds one
// from launch until its OnRunDone hook returns, so however many callers
// share an Executor, at most Parallelism runs are in flight. Run i always
// computes seed baseSeed+i, and arena reuse is byte-identical to a fresh
// machine, so results never depend on which arena, caller or goroutine
// executed them. An Executor is safe for concurrent use.
type Executor struct {
	arenas chan *sim.Runner
}

// NewExecutor returns an executor with parallelism arenas (≤ 0 selects
// GOMAXPROCS). Each arena builds its machine on its first run.
func NewExecutor(parallelism int) *Executor {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	e := &Executor{arenas: make(chan *sim.Runner, parallelism)}
	for i := 0; i < parallelism; i++ {
		e.arenas <- sim.NewRunner()
	}
	return e
}

// Parallelism is the number of runs the executor holds in flight at most.
func (e *Executor) Parallelism() int { return cap(e.arenas) }

// Run executes the benchmark with seeds baseSeed+i for i in
// [start, start+count) and returns each run's scalar metrics in seed
// order; hooks fire with i, the seed and the full result. Run stops
// launching once ctx ends or a run fails, waits for the runs already in
// flight, and then returns the error of the lowest failing run, or
// context.Cause(ctx) if the context stopped it first.
func (e *Executor) Run(ctx context.Context, benchmark string, cfg sim.Config, scale float64, baseSeed uint64, start, count int, h RunHooks) ([]map[string]float64, error) {
	if err := workload.CheckScale(scale); err != nil {
		return nil, fmt.Errorf("population: %w", err)
	}
	metrics := make([]map[string]float64, count)
	errs := make([]error, count)
	var failed atomic.Bool
	var wg sync.WaitGroup
	launched := 0
	for ; launched < count; launched++ {
		var r *sim.Runner
		select {
		case r = <-e.arenas:
		case <-ctx.Done():
		}
		// The select picks at random when both are ready, so re-check.
		if r != nil && (ctx.Err() != nil || failed.Load()) {
			e.arenas <- r
			r = nil
		}
		if r == nil {
			break
		}
		wg.Add(1)
		go func(k int, r *sim.Runner) {
			defer wg.Done()
			i := start + k
			seed := baseSeed + uint64(i)
			if h.OnRunStart != nil {
				h.OnRunStart(i, seed)
			}
			t0 := time.Now()
			res, err := r.Run(benchmark, cfg, scale, seed)
			if err != nil {
				errs[k] = err
				failed.Store(true) // before the arena frees, so no later launch misses it
			} else {
				metrics[k] = res.Metrics
			}
			if h.OnRunDone != nil {
				h.OnRunDone(i, seed, res, err, time.Since(t0))
			}
			e.arenas <- r
		}(launched, r)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("population: run %d of %s: %w", start+k, benchmark, err)
		}
	}
	if launched < count {
		return nil, context.Cause(ctx)
	}
	return metrics, nil
}

// Generate is GenerateHooked on this executor, stopping early with
// context.Cause(ctx) when ctx ends.
func (e *Executor) Generate(ctx context.Context, benchmark string, cfg sim.Config, scale float64, runs int, baseSeed uint64, h RunHooks) (*Population, error) {
	if runs <= 0 || runs > MaxRuns {
		return nil, fmt.Errorf("population: run count %d outside [1, %d]", runs, MaxRuns)
	}
	metrics, err := e.Run(ctx, benchmark, cfg, scale, baseSeed, 0, runs, h)
	if err != nil {
		return nil, err
	}
	return FromRuns(benchmark, baseSeed, metrics), nil
}
