package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/smc"
	"repro/internal/stats"
)

// ConfidenceIntervalSweep builds the SPA confidence interval with the
// paper's granularity-based search (Sec. 4.2): start from an initial
// estimate V0 of the metric, step outward by the granularity, and rerun the
// fixed-sample SMC test at each threshold until the boundary thresholds of
// the non-converged band are found. No new executions are needed — every
// test reuses the same sample set (Sec. 4.1).
//
// The exact construction in ConfidenceInterval is the granularity→0 limit
// of this search and is preferred; the sweep is retained because it
// reproduces the paper's procedure literally (and the ablation benchmark
// compares the two). The returned interval's endpoints are grid points, so
// they differ from the exact interval by at most one granularity step.
func ConfidenceIntervalSweep(samples []float64, p Params) (stats.Interval, error) {
	if err := p.validate(); err != nil {
		return stats.Interval{}, err
	}
	if len(samples) == 0 {
		return stats.Interval{}, fmt.Errorf("%w: empty sample", ErrInsufficientSamples)
	}
	// Surface the insufficient-samples case exactly like the exact
	// construction (the sweep below would otherwise walk to its scan limit
	// and return a meaningless interval).
	if _, _, err := convergenceBounds(len(samples), p.F, p.sideLevel()); err != nil {
		return stats.Interval{}, err
	}
	// Each per-threshold test must converge at the composition's per-side
	// level so the sweep agrees with the exact construction.
	side := p
	side.C = p.sideLevel()
	side.Composition = PerSideC

	// One sort up front serves the walk's satisfied counts (binary search
	// per step), the extrema, and the initial estimate.
	sorted := append([]float64(nil), samples...)
	stats.SortFloats(sorted)
	if err := stats.CheckFiniteSorted(sorted); err != nil {
		return stats.Interval{}, err
	}

	lo, hi := sorted[0], sorted[len(sorted)-1]
	g := p.Granularity
	if g <= 0 {
		if hi > lo {
			g = (hi - lo) / 1000
		} else {
			// Degenerate constant sample: any positive step works.
			g = math.Max(math.Abs(lo)*1e-6, 1e-9)
		}
	}

	// V0: the empirical value at the proportion of interest.
	v0 := initialEstimate(sorted, p)

	n := len(sorted)
	test := func(v float64) smc.Assertion {
		var m int
		if p.Direction == AtLeast {
			m = n - sort.Search(n, func(j int) bool { return sorted[j] >= v })
		} else {
			m = sort.Search(n, func(j int) bool { return sorted[j] > v })
		}
		a, conf := smc.Confidence(m, n, side.F)
		if conf < side.C {
			return smc.Inconclusive
		}
		return a
	}

	// For AtMost, the assertion is monotone in v: Negative for small
	// thresholds, then None, then Positive. For AtLeast the direction is
	// mirrored. Normalize to the AtMost orientation for the walk.
	dirUp := smc.Positive
	dirDown := smc.Negative
	if p.Direction == AtLeast {
		dirUp, dirDown = dirDown, dirUp
	}

	// Walk upward to the smallest grid threshold asserting dirUp, and
	// downward to the largest asserting dirDown. The walk is bounded well
	// beyond the sample range, where the assertions are guaranteed (the
	// convergenceBounds precondition above ensures both sides converge).
	span := hi - lo + g
	maxSteps := int(span/g) + 2

	upper := math.NaN()
	for i := 0; i <= maxSteps; i++ {
		v := v0 + float64(i)*g
		if test(v) == dirUp {
			upper = v
			break
		}
	}
	lower := math.NaN()
	for i := 0; i <= maxSteps; i++ {
		v := v0 - float64(i)*g
		if test(v) == dirDown {
			lower = v
			break
		}
	}
	if math.IsNaN(upper) || math.IsNaN(lower) {
		return stats.Interval{}, fmt.Errorf("%w: sweep did not bracket the None band (granularity %g)",
			ErrInsufficientSamples, g)
	}
	// The paper reports [V_lower, V_upper]: the boundary thresholds at
	// which the two opposing assertions first converge.
	return stats.Interval{Lo: lower, Hi: upper}, nil
}

// initialEstimate picks V0 for the sweep: the empirical sample value at the
// proportion the property targets, which always lies inside or adjacent to
// the None band. The sample must already be sorted ascending.
func initialEstimate(sorted []float64, p Params) float64 {
	f := p.F
	if p.Direction == AtLeast {
		f = 1 - p.F
		if f <= 0 {
			f = math.SmallestNonzeroFloat64
		}
	}
	if f > 1 {
		f = 1
	}
	return stats.QuantileSorted(sorted, f)
}
