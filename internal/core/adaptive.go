package core

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// WidthOptions tune AnalyzeToWidthWith.
type WidthOptions struct {
	// TargetWidth is the desired maximum CI width (absolute units of the
	// metric). Must be positive.
	TargetWidth float64
	// GrowBatch is how many extra executions each refinement round adds;
	// zero selects the (F, C) minimum again.
	GrowBatch int
	// MaxSamples bounds the total executions (0 selects 4096).
	MaxSamples int
	// Batch bounds parallel in-flight executions per round.
	Batch int
	// BaseSeed seeds the campaign.
	BaseSeed uint64
	// Hooks receive per-execution and per-round telemetry callbacks; the
	// zero value disables them (see Hooks). Seeds reported to hooks are
	// campaign-absolute (BaseSeed included).
	Hooks Hooks
}

// ErrWidthBudget reports that AnalyzeToWidthWith hit MaxSamples before the
// interval narrowed to the target.
var ErrWidthBudget = errors.New("core: sample budget exhausted before reaching target width")

// AnalyzeToWidthWith implements the refinement loop of Sec. 4.2: "if the
// architect decides that the interval [...] is wider than desired, she can
// decide to run more simulator executions, which may result in a narrower
// interval." It collects the (F, C) minimum first, then adds executions in
// rounds until the SPA interval is at most TargetWidth wide, reusing every
// earlier execution. It runs against any collection backend (see
// AnalyzeWith; FuncCollector wraps a local RunFunc), and refinement rounds
// extend the same consecutive seed range whichever backend runs them, so
// the campaign stays replicable.
//
// On budget exhaustion the widest-effort analysis is returned together
// with ErrWidthBudget, so callers can still use the interval.
func AnalyzeToWidthWith(c Collector, p Params, w WidthOptions) (*Analysis, error) {
	if c == nil {
		return nil, errNilCollector
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	if w.TargetWidth <= 0 {
		return nil, errors.New("core: non-positive target width")
	}
	minN, err := designMinSamples(c, p)
	if err != nil {
		return nil, err
	}
	grow := w.GrowBatch
	if grow <= 0 {
		grow = minN
	}
	maxN := w.MaxSamples
	if maxN <= 0 {
		maxN = 4096
	}
	if maxN < minN {
		return nil, fmt.Errorf("core: MaxSamples %d below the (F,C) minimum %d", maxN, minN)
	}

	// The sample buffer is sized once for the whole budget, so refinement
	// rounds append without regrowing, and the Analysis copy is made only
	// on the round that actually returns.
	samples := make([]float64, 0, maxN)
	next := uint64(0)
	collect := func(n int) error {
		fresh, err := c.Collect(w.BaseSeed+next, n, w.Batch, w.Hooks)
		if err != nil {
			return err
		}
		// The cursor advances by the count we asked for, so a backend that
		// returns short (or long) would desynchronize the seed range from
		// the sample count — every later round, and any replay of the
		// campaign, would disagree about which seed produced which sample.
		// That contract violation is fatal, not papered over.
		if len(fresh) != n {
			return &CollectionSizeError{BaseSeed: w.BaseSeed + next, Requested: n, Returned: len(fresh)}
		}
		samples = append(samples, fresh...)
		next += uint64(n)
		return nil
	}

	if err := collect(minN); err != nil {
		return nil, err
	}
	for {
		iv, err := designInterval(c, samples, p)
		if err != nil {
			return nil, err
		}
		if w.Hooks.OnRound != nil {
			w.Hooks.OnRound(len(samples), iv.Width())
		}
		done := iv.Width() <= w.TargetWidth
		exhausted := !done && len(samples) >= maxN
		if done || exhausted {
			a := &Analysis{Params: p, Samples: append([]float64(nil), samples...), Interval: iv, MinSamples: minN}
			if exhausted {
				return a, fmt.Errorf("%w: width %.6g after %d executions (target %.6g)",
					ErrWidthBudget, iv.Width(), len(samples), w.TargetWidth)
			}
			return a, nil
		}
		n := grow
		if len(samples)+n > maxN {
			n = maxN - len(samples)
		}
		if err := collect(n); err != nil {
			return nil, err
		}
	}
}

// WidthAtSamples estimates, by order-statistic geometry on an existing
// sample, how wide the SPA interval would be had n executions been drawn
// from the same distribution — a planning helper for sizing campaigns.
// It resamples the empirical distribution deterministically (stratified
// quantiles) and builds the CI on that synthetic sample.
func WidthAtSamples(existing []float64, p Params, n int) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	if len(existing) == 0 {
		return 0, errors.New("core: empty sample")
	}
	minN, err := CIMinSamples(p)
	if err != nil {
		return 0, err
	}
	if n < minN {
		return 0, fmt.Errorf("%w: %d below minimum %d", ErrInsufficientSamples, n, minN)
	}
	sorted := append([]float64(nil), existing...)
	stats.SortFloats(sorted)
	synth := make([]float64, n)
	for i := range synth {
		f := (float64(i) + 0.5) / float64(n)
		synth[i] = stats.QuantileSorted(sorted, f)
	}
	iv, err := ConfidenceInterval(synth, p)
	if err != nil {
		return 0, err
	}
	return iv.Width(), nil
}
