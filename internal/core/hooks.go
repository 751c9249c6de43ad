package core

import "time"

// Hooks are optional per-execution callbacks threaded through CollectHooks,
// the collectors and the adaptive loop, the attachment points for the
// observability layer (internal/obs). The zero value disables everything;
// a nil field is skipped with a single pointer check, so the hot RunFunc
// path pays no measurable cost when telemetry is off (see
// BenchmarkCollectHooksOverhead).
//
// Hooks observe executions; they must not mutate campaign state and they
// never receive or consume simulation RNG, so enabling them cannot change
// any collected metric.
type Hooks struct {
	// OnRunStart fires immediately before an execution with its seed.
	// It may be called from many goroutines concurrently.
	OnRunStart func(seed uint64)
	// OnRunDone fires after an execution completes with its seed, the
	// collected value (undefined on error), the error, and the wall time.
	// It may be called from many goroutines concurrently.
	OnRunDone func(seed uint64, value float64, err error, elapsed time.Duration)
	// OnRound fires once per adaptive refinement round (AnalyzeToWidthWith)
	// with the cumulative sample count and the current interval width.
	OnRound func(samples int, width float64)
}

// enabled reports whether any per-run callback is set; when false the
// collect loop takes the exact pre-hooks code path (no time.Now calls).
func (h Hooks) enabled() bool {
	return h.OnRunStart != nil || h.OnRunDone != nil
}
