package dist

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/sim"
)

// GeneratePopulationCtx is the distributed twin of population.Generate:
// it runs the job `runs` times with seeds baseSeed+i across the workers
// and assembles the population through the same code path local
// generation uses, so the two are byte-identical for the same seed.
func (c *Coordinator) GeneratePopulationCtx(ctx context.Context, benchmark string, cfg sim.Config, scale float64, runs int, baseSeed uint64, h population.RunHooks) (*population.Population, error) {
	results, err := c.RunCtx(ctx, Job{Benchmark: benchmark, Config: cfg, Scale: scale}, baseSeed, runs, h)
	if err != nil {
		return nil, err
	}
	metrics := make([]map[string]float64, len(results))
	for i, r := range results {
		metrics[i] = r.Metrics
	}
	return population.FromRuns(benchmark, baseSeed, metrics), nil
}

// CollectorCtx binds the coordinator to one (job, metric) pair as a
// core.Collector, so AnalyzeWith and AnalyzeToWidthWith can consume a
// remote backend unchanged; every Collect is cancelled with ctx.
func (c *Coordinator) CollectorCtx(ctx context.Context, job Job, metric string) core.Collector {
	return &metricCollector{c: c, ctx: ctx, job: job, metric: metric}
}

type metricCollector struct {
	c      *Coordinator
	ctx    context.Context
	job    Job
	metric string
}

// Collect implements core.Collector. The batch bound is advisory here:
// in-flight parallelism is governed by each worker's own limit (and the
// coordinator's for local fallback), which cannot change sample values.
func (mc *metricCollector) Collect(baseSeed uint64, n, batch int, h core.Hooks) ([]float64, error) {
	results, err := mc.c.RunCtx(mc.ctx, mc.job, baseSeed, n, adaptHooks(mc.metric, h))
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i, r := range results {
		v, ok := r.Metrics[mc.metric]
		if !ok {
			return nil, fmt.Errorf("dist: run with seed %d has no metric %q", baseSeed+uint64(r.Offset), mc.metric)
		}
		out[i] = v
	}
	return out, nil
}

// adaptHooks projects core's scalar-metric hooks onto the per-run hooks
// the coordinator fires.
func adaptHooks(metric string, h core.Hooks) population.RunHooks {
	var out population.RunHooks
	if h.OnRunStart != nil {
		out.OnRunStart = func(i int, seed uint64) { h.OnRunStart(seed) }
	}
	if h.OnRunDone != nil {
		out.OnRunDone = func(i int, seed uint64, res *sim.Result, err error, elapsed time.Duration) {
			var v float64
			if res != nil {
				v = res.Metrics[metric]
			}
			h.OnRunDone(seed, v, err, elapsed)
		}
	}
	return out
}
