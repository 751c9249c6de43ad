package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/numeric"
	"repro/internal/smc"
	"repro/internal/stats"
)

// Direction selects the comparison used in the scalar property
// "metric ⋈ threshold" that SPA sweeps to build a confidence interval.
type Direction int

const (
	// AtMost uses φ_v(x) = (x ≤ v): "the metric is no more than v".
	// With proportion F this targets the F-quantile of the metric.
	AtMost Direction = iota
	// AtLeast uses φ_v(x) = (x ≥ v): "the metric is at least v".
	// With proportion F this targets the value exceeded by an F fraction
	// of executions (the (1−F) inverted-CDF quantile).
	AtLeast
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == AtLeast {
		return "at-least"
	}
	return "at-most"
}

// Composition selects how the two opposing one-sided hypothesis tests are
// composed into a two-sided confidence interval (Sec. 4.1).
type Composition int

const (
	// BonferroniSplit (the default) runs each one-sided test at level
	// 1−(1−C)/2, so the union bound over the two disjoint miss events
	// guarantees two-sided coverage ≥ C. The paper's text composes the
	// interval "between any two hypothesis tests yielding opposing results
	// with confidence greater than C", which only guarantees coverage
	// 2C−1; the error probabilities the paper actually measures for SPA
	// (0.065 at the median for C = 0.9, Fig. 6) match the split level, so
	// we make the coverage-correct variant the default. See EXPERIMENTS.md.
	BonferroniSplit Composition = iota
	// PerSideC runs each one-sided test at level C, literally as written
	// in Sec. 4.1. The resulting interval is narrower but only guarantees
	// coverage 2C−1. Kept for the ablation benchmark.
	PerSideC
)

// Params configures an SPA analysis.
type Params struct {
	// F is the proportion of executions that must satisfy the property
	// (paper Sec. 4.4: F = 0.5 targets the median, larger F the tails).
	F float64
	// C is the requested confidence level in (0, 1).
	C float64
	// Direction chooses the property comparison; the default AtMost
	// estimates the F-quantile.
	Direction Direction
	// Composition selects the two-sided composition rule; the default
	// BonferroniSplit guarantees coverage ≥ C.
	Composition Composition
	// Granularity is the threshold step of the sweep-based search
	// (Sec. 4.2). Zero selects 1/1000 of the sample range. The exact
	// order-statistic construction ignores it.
	Granularity float64
}

// SideLevel returns the confidence level each one-sided test must reach
// under p's composition rule. Exported for design estimators
// (internal/sampling) that must compose their two one-sided tests
// exactly like the plain construction, or their coverage guarantee
// would silently diverge from it.
func (p Params) SideLevel() float64 { return p.sideLevel() }

// sideLevel returns the confidence level each one-sided test must reach.
func (p Params) sideLevel() float64 {
	if p.Composition == PerSideC {
		return p.C
	}
	return 1 - (1-p.C)/2
}

func (p Params) validate() error {
	if math.IsNaN(p.F) || p.F <= 0 || p.F >= 1 {
		return fmt.Errorf("core: proportion F=%v outside (0,1)", p.F)
	}
	if math.IsNaN(p.C) || p.C <= 0 || p.C >= 1 {
		return fmt.Errorf("core: confidence C=%v outside (0,1)", p.C)
	}
	if p.Granularity < 0 {
		return errors.New("core: negative granularity")
	}
	return nil
}

// ErrInsufficientSamples reports that the sample set is smaller than the
// minimum required for the hypothesis tests at (F, C) to converge in both
// directions (paper eq. 8), so no confidence interval exists.
var ErrInsufficientSamples = errors.New("core: not enough samples for requested F and C")

// ConfidenceInterval builds the SPA confidence interval for the metric at
// proportion p.F with confidence p.C, using the exact order-statistic
// construction.
//
// The construction is the granularity→0 limit of the paper's threshold
// search: for the AtMost property the satisfied count M(v) = #{x ≤ v} steps
// through 0..N as v crosses the sorted sample values, and the
// Clopper–Pearson verdict depends on v only through M(v). Let mNeg be the
// largest M whose test converges negative and mPos the smallest M whose
// test converges positive. Every threshold strictly below the (mNeg+1)-th
// order statistic is invalidated, every threshold at or above the mPos-th
// order statistic is validated, and thresholds in between yield "None"
// (paper Fig. 4's unshaded band). The interval is therefore
//
//	[ x_(mNeg+1) , x_(mPos) ]
//
// in 1-based order statistics, which is exactly what the paper's search
// returns as [V_lower, V_upper] when the granularity is fine enough.
//
// A sample holding NaN or ±Inf is refused with an error matching
// stats.ErrNonFinite.
func ConfidenceInterval(samples []float64, p Params) (stats.Interval, error) {
	if err := p.validate(); err != nil {
		return stats.Interval{}, err
	}
	if len(samples) == 0 {
		return stats.Interval{}, fmt.Errorf("%w: empty sample", ErrInsufficientSamples)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return ConfidenceIntervalSorted(sorted, p)
}

// ConfidenceIntervalSorted is ConfidenceInterval for a sample the caller
// has already sorted ascending. Trial harnesses that build several CIs from
// the same draw sort once and share the view; the construction itself is
// pure order-statistic indexing, so no copy and no re-sort happens here.
// The AtLeast direction reads the reflected order statistics directly
// (x ≥ v ⟺ −x ≤ −v, and negating an ascending array reverses it), which is
// exactly the reflect–solve–reflect of the AtMost construction without
// materializing the negated sample.
func ConfidenceIntervalSorted(sorted []float64, p Params) (stats.Interval, error) {
	if err := p.validate(); err != nil {
		return stats.Interval{}, err
	}
	if err := stats.CheckFiniteSorted(sorted); err != nil {
		return stats.Interval{}, err
	}
	n := len(sorted)
	mNeg, mPos, err := convergenceBounds(n, p.F, p.sideLevel())
	if err != nil {
		return stats.Interval{}, err
	}
	if p.Direction == AtLeast {
		return stats.Interval{Lo: sorted[n-mPos], Hi: sorted[n-1-mNeg]}, nil
	}
	return stats.Interval{Lo: sorted[mNeg], Hi: sorted[mPos-1]}, nil
}

// convergenceKey memoizes convergenceBounds: every trial of a CI-evaluation
// campaign re-solves the identical (n, f, c) instance, and the bounds are a
// pure function of the key.
type convergenceKey struct {
	n    int
	f, c float64
}

type convergenceVal struct{ mNeg, mPos int }

var (
	convergenceCache     sync.Map // convergenceKey → convergenceVal
	convergenceCacheSize atomic.Int64
)

// convergenceCacheCap bounds the memo; past it, instances are solved
// without being stored (campaigns use a handful of keys, so the cap exists
// only as a leak guard).
const convergenceCacheCap = 1 << 12

// convergenceBounds returns mNeg (largest satisfied-count with a converged
// negative verdict) and mPos (smallest with a converged positive verdict)
// for sample size n. Convergence means C_CP ≥ c (see the note on
// smc.CheckFixed). It returns ErrInsufficientSamples when either side
// cannot converge at all.
//
// The negative-side confidence decreases as M grows toward F·N and the
// positive side decreases as M shrinks toward it (both are tails of the
// monotone BetaCDF), so each boundary is found by binary search — O(log N)
// beta evaluations instead of the former O(N) scans — and successful
// results are memoized by (n, f, c). TestConvergenceBoundsMatchesLinearScan
// pins equivalence with the linear reference.
func convergenceBounds(n int, f, c float64) (mNeg, mPos int, err error) {
	if n == 0 {
		return 0, 0, fmt.Errorf("%w: empty sample", ErrInsufficientSamples)
	}
	key := convergenceKey{n: n, f: f, c: c}
	if v, ok := convergenceCache.Load(key); ok {
		cv := v.(convergenceVal)
		return cv.mNeg, cv.mPos, nil
	}
	if a, conf := smc.Confidence(0, n, f); a != smc.Negative || conf < c {
		return 0, 0, fmt.Errorf("%w: even M=0 cannot assert negative at C=%v with N=%d (need %s)",
			ErrInsufficientSamples, c, n, minSamplesHint(f, c))
	}
	if a, conf := smc.Confidence(n, n, f); a != smc.Positive || conf < c {
		return 0, 0, fmt.Errorf("%w: even M=N cannot assert positive at C=%v with N=%d (need %s)",
			ErrInsufficientSamples, c, n, minSamplesHint(f, c))
	}
	// negOK holds on the contiguous prefix [0, mNeg]; sort.Search finds the
	// first m where it fails.
	negOK := func(m int) bool {
		a, conf := smc.Confidence(m, n, f)
		return a == smc.Negative && conf >= c
	}
	mNeg = sort.Search(n+1, func(m int) bool { return !negOK(m) }) - 1
	// posOK holds on the contiguous suffix [mPos, n]; sort.Search finds its
	// first member.
	posOK := func(m int) bool {
		a, conf := smc.Confidence(m, n, f)
		return a == smc.Positive && conf >= c
	}
	mPos = sort.Search(n+1, posOK)
	if convergenceCacheSize.Load() < convergenceCacheCap {
		if _, loaded := convergenceCache.LoadOrStore(key, convergenceVal{mNeg: mNeg, mPos: mPos}); !loaded {
			convergenceCacheSize.Add(1)
		}
	}
	return mNeg, mPos, nil
}

func minSamplesHint(f, c float64) string {
	if n, err := smc.MinSamples(f, c); err == nil {
		return fmt.Sprintf("≥%d samples", n)
	}
	return "more samples"
}

// CIMinSamples returns the minimum number of executions for which the
// confidence-interval construction can succeed under p's composition rule.
// For PerSideC this equals smc.MinSamples(F, C) — the paper's eq. 8 count
// (22 at F = C = 0.9); the coverage-correct BonferroniSplit needs the
// eq. 8 count at the split level (29 at F = C = 0.9).
func CIMinSamples(p Params) (int, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	return smc.MinSamples(p.F, p.sideLevel())
}

// HypothesisTest runs a single fixed-sample SMC test of the direct property
// "metric ⋈ threshold" on the samples (the trivial path of Sec. 4.2, used
// when the architect supplies the property herself).
func HypothesisTest(samples []float64, threshold float64, p Params) (smc.Result, error) {
	if err := p.validate(); err != nil {
		return smc.Result{}, err
	}
	pred := func(x float64) bool { return x <= threshold }
	if p.Direction == AtLeast {
		pred = func(x float64) bool { return x >= threshold }
	}
	return smc.CheckValues(samples, pred, p.F, p.C)
}

// PositiveConfidence returns the one-sided confidence that P(φ) ≥ F given M
// successes out of N — the quantity plotted per threshold in the paper's
// Fig. 4. Values above C converge to positive; values below 1−C indicate
// the negative test converged; the band between is "None".
func PositiveConfidence(m, n int, f float64) float64 {
	switch {
	case n <= 0 || m < 0 || m > n:
		return math.NaN()
	case m == 0:
		return 0
	case m == n:
		return 1 - math.Pow(f, float64(n))
	default:
		return 1 - numeric.BetaCDF(f, float64(m), float64(n-m)+1)
	}
}

// ThresholdPoint is one point of a threshold sweep (Fig. 4).
type ThresholdPoint struct {
	Threshold    float64
	Satisfied    int           // M at this threshold
	PositiveConf float64       // one-sided positive confidence (the plotted value)
	Assertion    smc.Assertion // converged verdict, or Inconclusive
}

// ThresholdSweep evaluates the fixed-sample SMC test at each threshold and
// returns the per-threshold confidences, reproducing the data behind the
// paper's Fig. 4.
func ThresholdSweep(samples []float64, thresholds []float64, p Params) ([]ThresholdPoint, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, errors.New("core: threshold sweep over an empty sample")
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return ThresholdSweepSorted(sorted, thresholds, p)
}

// ThresholdSweepSorted is ThresholdSweep for an already ascending-sorted
// sample: the satisfied count at each threshold comes from one binary
// search over the sorted view instead of an O(N) predicate scan, and the
// verdict from a single Clopper–Pearson evaluation — exactly the counts and
// assertions HypothesisTest produces on the unsorted sample.
func ThresholdSweepSorted(sorted []float64, thresholds []float64, p Params) ([]ThresholdPoint, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := len(sorted)
	if n == 0 {
		return nil, errors.New("core: threshold sweep over an empty sample")
	}
	out := make([]ThresholdPoint, len(thresholds))
	for i, v := range thresholds {
		var m int
		if p.Direction == AtLeast {
			// #{x ≥ v} = n − #{x < v}.
			m = n - sort.Search(n, func(j int) bool { return sorted[j] >= v })
		} else {
			// #{x ≤ v}.
			m = sort.Search(n, func(j int) bool { return sorted[j] > v })
		}
		assertion, conf := smc.Confidence(m, n, p.F)
		if conf < p.C {
			assertion = smc.Inconclusive
		}
		out[i] = ThresholdPoint{
			Threshold:    v,
			Satisfied:    m,
			PositiveConf: PositiveConfidence(m, n, p.F),
			Assertion:    assertion,
		}
	}
	return out, nil
}
