package popcache

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/workload"
)

// Source is the one way to get a population. A request looks its recipe
// up in the cache once; on a miss it joins the generation in flight for
// that recipe or leads a new one, which runs through Coord when set and
// in-process otherwise, and caches a success but never a failure. The
// zero value generates in-process without caching.
type Source struct {
	Cache *Cache // nil disables caching
	// Coord, when set, generates across its workers (and its own
	// executor); otherwise every leader runs on the Source's one
	// executor of Parallelism arenas, so concurrent leaders share that
	// CPU budget. Either way a cancelled leader stops launching.
	Coord       *dist.Coordinator
	Parallelism int           // bounds in-process generation (0 = GOMAXPROCS)
	Obs         *obs.Observer // run hooks and progress totals of Population requests

	flights  sync.Map // recipe hash → *flight
	execOnce sync.Once
	exec     *population.Executor
}

// flight is one generation in progress, set before done is closed. A
// cancelled leader abandons it: the error is the leader's alone, so its
// waiters lead a fresh flight.
type flight struct {
	done      chan struct{}
	pop       *population.Population
	err       error
	abandoned bool
}

// Population returns the population of recipe k; hit reports that this
// call simulated nothing.
func (s *Source) Population(ctx context.Context, k Key) (pop *population.Population, hit bool, err error) {
	return s.get(ctx, k, false)
}

// Pilot returns a sampling.PilotFunc whose blocks are full populations of
// recipe (at pilot scale), generated without run hooks or progress
// totals: pilot runs are design overhead, not campaign samples.
func (s *Source) Pilot(ctx context.Context, recipe Key, metric string) func(baseSeed uint64, n int) ([]float64, error) {
	return func(baseSeed uint64, n int) ([]float64, error) {
		k := recipe
		k.BaseSeed, k.Runs = baseSeed, n
		pop, _, err := s.get(ctx, k, true)
		if err != nil {
			return nil, err
		}
		return pop.Metric(metric)
	}
}

func (s *Source) get(ctx context.Context, k Key, pilot bool) (*population.Population, bool, error) {
	// Refused before the key is hashed: JSON has no NaN or ±Inf.
	if err := workload.CheckScale(k.Scale); err != nil {
		return nil, false, fmt.Errorf("popcache: %w", err)
	}
	if pop := s.Cache.Get(k); pop != nil {
		return pop, true, nil
	}
	hash := k.Hash()
	for {
		v, joined := s.flights.LoadOrStore(hash, &flight{done: make(chan struct{})})
		f := v.(*flight)
		if !joined {
			return s.lead(ctx, k, hash, f, pilot)
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if !f.abandoned {
			return f.pop, f.err == nil, f.err
		}
	}
}

func (s *Source) lead(ctx context.Context, k Key, hash string, f *flight, pilot bool) (*population.Population, bool, error) {
	var hooks population.RunHooks
	if !pilot {
		s.Obs.Logf("simulating %s: %d runs at scale %g", k.Benchmark, k.Runs, k.Scale)
		s.Obs.P().AddTotal(k.Runs)
		hooks = population.ObserverHooks(s.Obs, k.Benchmark)
	}
	if s.Coord != nil {
		f.pop, f.err = s.Coord.GeneratePopulationCtx(ctx, k.Benchmark, k.Config, k.Scale, k.Runs, k.BaseSeed, hooks)
	} else {
		s.execOnce.Do(func() { s.exec = population.NewExecutor(s.Parallelism) })
		f.pop, f.err = s.exec.Generate(ctx, k.Benchmark, k.Config, k.Scale, k.Runs, k.BaseSeed, hooks)
	}
	if f.err == nil {
		_ = s.Cache.Put(k, f.pop) // a disk error still leaves it cached in memory
	}
	f.abandoned = f.err != nil && ctx.Err() != nil
	s.flights.Delete(hash)
	close(f.done)
	return f.pop, false, f.err
}
