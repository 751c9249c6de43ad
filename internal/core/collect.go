package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// RunFunc executes one experiment (typically a simulation) with the given
// seed and returns the metric of interest. Implementations must be safe for
// concurrent use: SPA launches batches of executions in parallel
// (Sec. 4.3). Determinism is the caller's contract — the same seed must
// yield the same metric — which is what makes SPA campaigns replicable.
type RunFunc func(seed uint64) (float64, error)

// CollectHooks runs n executions with seeds baseSeed+0 … baseSeed+n−1, at
// most batch at a time in parallel (batch ≤ 0 means fully parallel), and
// returns the metrics ordered by seed offset. The ordering guarantee means
// the result is independent of goroutine scheduling, preserving
// replicability. Execution errors are aggregated with errors.Join after the
// batch drains, so a multi-seed failure surfaces every failing seed in one
// pass. h receives per-execution callbacks (see Hooks); zero hooks take a
// path with no timing calls.
//
// Concurrency is a fixed pool of batch goroutines pulling seed offsets
// from a channel — not one goroutine per sample — so a campaign of
// thousands of runs with a small batch allocates batch stacks, not
// thousands. Results land at their seed offset, preserving the ordering
// guarantee regardless of which pool worker ran which seed.
func CollectHooks(run RunFunc, baseSeed uint64, n, batch int, h Hooks) ([]float64, error) {
	if run == nil {
		return nil, errors.New("core: nil RunFunc")
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: non-positive sample count %d", n)
	}
	if batch <= 0 || batch > n {
		batch = n
	}
	out := make([]float64, n)
	observed := h.enabled()
	idx := make(chan int)
	// Failures are the exception, so they are gathered lazily under a mutex
	// rather than in a per-call []error of length n: the happy path of a
	// campaign round allocates only the sample slice itself. The seed-offset
	// sort keeps the joined error deterministic regardless of which worker
	// hit which failure first.
	var (
		errMu    sync.Mutex
		failures []seedErr
	)
	var wg sync.WaitGroup
	wg.Add(batch)
	for w := 0; w < batch; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				seed := baseSeed + uint64(i)
				var err error
				if observed {
					if h.OnRunStart != nil {
						h.OnRunStart(seed)
					}
					start := time.Now()
					out[i], err = run(seed)
					if h.OnRunDone != nil {
						h.OnRunDone(seed, out[i], err, time.Since(start))
					}
				} else {
					out[i], err = run(seed)
				}
				if err != nil {
					errMu.Lock()
					failures = append(failures, seedErr{i: i, err: err})
					errMu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if len(failures) > 0 {
		sort.Slice(failures, func(a, b int) bool { return failures[a].i < failures[b].i })
		joined := make([]error, len(failures))
		for k, f := range failures {
			joined[k] = fmt.Errorf("core: execution with seed %d: %w", baseSeed+uint64(f.i), f.err)
		}
		return nil, errors.Join(joined...)
	}
	return out, nil
}

// seedErr pairs a failed execution's seed offset with its error so joined
// failures report in seed order.
type seedErr struct {
	i   int
	err error
}

// Analysis is the full result of a push-button SPA run.
type Analysis struct {
	Params     Params
	Samples    []float64      // collected metrics, ordered by seed offset
	Interval   stats.Interval // the SPA confidence interval
	MinSamples int            // minimum executions required by (F, C)
}

// Options tunes Analyze.
type Options struct {
	// Samples is the number of executions to run; zero means exactly the
	// minimum required by (F, C) (eq. 8). More samples narrow the interval.
	Samples int
	// Batch bounds parallel in-flight executions; zero means run all of a
	// campaign concurrently.
	Batch int
	// BaseSeed seeds the campaign; run i uses BaseSeed+i.
	BaseSeed uint64
	// Hooks receive per-execution telemetry callbacks; the zero value
	// disables them (see Hooks).
	Hooks Hooks
}

// Analyze is the push-button entry point of the SPA framework: it computes
// the minimum sample count for (F, C), collects that many executions in
// parallel batches, and returns the confidence interval for the metric at
// proportion F. This is the end-to-end flow of the paper's Fig. 3.
func Analyze(run RunFunc, p Params, opts Options) (*Analysis, error) {
	return AnalyzeWith(FuncCollector(run), p, opts)
}

// AnalyzeWith is Analyze against any collection backend — a local
// RunFunc (FuncCollector) or a distributed coordinator. Because the
// Collector contract fixes seed→sample ordering, the analysis is
// identical whichever backend collected the samples.
func AnalyzeWith(c Collector, p Params, opts Options) (*Analysis, error) {
	if c == nil {
		return nil, errNilCollector
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	minN, err := designMinSamples(c, p)
	if err != nil {
		return nil, fmt.Errorf("core: computing minimum samples: %w", err)
	}
	n := opts.Samples
	if n <= 0 {
		n = minN
	}
	if n < minN {
		return nil, fmt.Errorf("%w: requested %d executions, (F=%g, C=%g) needs at least %d",
			ErrInsufficientSamples, n, p.F, p.C, minN)
	}
	samples, err := c.Collect(opts.BaseSeed, n, opts.Batch, opts.Hooks)
	if err != nil {
		return nil, err
	}
	if len(samples) != n {
		return nil, &CollectionSizeError{BaseSeed: opts.BaseSeed, Requested: n, Returned: len(samples)}
	}
	iv, err := designInterval(c, samples, p)
	if err != nil {
		return nil, err
	}
	return &Analysis{Params: p, Samples: samples, Interval: iv, MinSamples: minN}, nil
}
