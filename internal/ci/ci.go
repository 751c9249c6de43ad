// Package ci implements the prior-art confidence-interval constructions the
// paper compares SPA against (Sec. 2.4, 5.4): statistical bootstrapping with
// the bias-corrected and accelerated (BCa) method, nonparametric rank
// testing, and the Gaussian Z-score interval. Each method reproduces the
// failure modes the paper reports — in particular BCa's refusal to produce
// an interval when the sample contains many duplicate data points
// (Sec. 6.4, Fig. 15). The bootstrap and rank constructions refuse a sample
// holding NaN or ±Inf with an error matching stats.ErrNonFinite.
package ci

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/numeric"
	"repro/internal/stats"
)

// ErrDegenerate reports that a method could not produce an interval from
// the given sample — the "Null" outcome of the paper's bootstrap bars.
var ErrDegenerate = errors.New("ci: method failed to produce an interval")

func validate(f, c float64) error {
	if math.IsNaN(f) || f <= 0 || f >= 1 {
		return fmt.Errorf("ci: proportion F=%v outside (0,1)", f)
	}
	if math.IsNaN(c) || c <= 0 || c >= 1 {
		return fmt.Errorf("ci: confidence C=%v outside (0,1)", c)
	}
	return nil
}

// BootstrapOptions tunes the bootstrap methods.
type BootstrapOptions struct {
	// Resamples is the number of bootstrap resamples B; zero selects 2000.
	Resamples int
	// Seed drives the resampling RNG; bootstrap CIs are deterministic
	// given the seed. Every resample i draws from its own substream split
	// from (Seed, i), so the result does not depend on scheduling: the
	// resamples run on GOMAXPROCS goroutines, and the interval is
	// byte-identical for every GOMAXPROCS.
	Seed uint64
}

func (o BootstrapOptions) resamples() int {
	if o.Resamples <= 0 {
		return 2000
	}
	return o.Resamples
}

// sortedCopy returns the sample sorted ascending without mutating it.
func sortedCopy(samples []float64) []float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted
}

// BootstrapBCa builds the bias-corrected and accelerated bootstrap CI
// (Efron & Tibshirani) for the F-quantile at confidence c — the method the
// paper identifies as the strongest prior technique (Sec. 5.4).
//
// BCa fails with ErrDegenerate in exactly the situations the paper studies
// in Sec. 6.4:
//   - the bias correction z₀ is infinite because every (or no) resample
//     statistic falls below the point estimate — the common outcome when
//     duplicate data collapses the bootstrap distribution onto θ̂; or
//   - the acceleration is undefined because all jackknife leave-one-out
//     statistics are identical (again typical of duplicate-heavy samples,
//     e.g. integer metrics such as max load latency, or values rounded to
//     3 decimals as in Fig. 15).
func BootstrapBCa(samples []float64, f, c float64, opts BootstrapOptions) (stats.Interval, error) {
	if err := validate(f, c); err != nil {
		return stats.Interval{}, err
	}
	if len(samples) < 2 {
		return stats.Interval{}, fmt.Errorf("%w: need at least 2 samples", ErrDegenerate)
	}
	return BootstrapBCaSorted(sortedCopy(samples), f, c, opts)
}

// BootstrapBCaSorted is BootstrapBCa for a sample the caller has already
// sorted ascending; the trial harness sorts each draw once and shares the
// view across every CI method. The resampling stream draws from the sorted
// order, so BootstrapBCa(xs) equals BootstrapBCaSorted(sortedCopy(xs)) for
// any permutation of xs.
func BootstrapBCaSorted(sorted []float64, f, c float64, opts BootstrapOptions) (stats.Interval, error) {
	if err := validate(f, c); err != nil {
		return stats.Interval{}, err
	}
	if err := stats.CheckFiniteSorted(sorted); err != nil {
		return stats.Interval{}, err
	}
	n := len(sorted)
	if n < 2 {
		return stats.Interval{}, fmt.Errorf("%w: need at least 2 samples", ErrDegenerate)
	}
	thetaHat := stats.QuantileSorted(sorted, f)

	b := opts.resamples()
	thetasp := bootstrapDistribution(sorted, f, b, opts.Seed, 0)
	defer putFloats(thetasp)
	thetas := *thetasp

	// Bias correction z0 from the proportion of resample statistics
	// strictly below the point estimate.
	below := sort.SearchFloat64s(thetas, thetaHat) // count of θ* < θ̂
	if below == 0 || below == b {
		return stats.Interval{}, fmt.Errorf(
			"%w: bias correction undefined (%d/%d resample statistics below the estimate)",
			ErrDegenerate, below, b)
	}
	z0 := numeric.NormalQuantile(float64(below) / float64(b))

	// Acceleration from the incremental jackknife (see bootstrap.go): the
	// leave-one-out quantile over the shared sorted array takes only two
	// distinct values, so no per-left-out re-sorting happens.
	a, ok := jackknifeAcceleration(sorted, f)
	if !ok {
		return stats.Interval{}, fmt.Errorf(
			"%w: acceleration undefined (all jackknife statistics identical; duplicate-heavy sample)",
			ErrDegenerate)
	}

	// Adjusted percentile levels.
	alpha := (1 - c) / 2
	zLo := numeric.NormalQuantile(alpha)
	zHi := numeric.NormalQuantile(1 - alpha)
	adj := func(z float64) (float64, error) {
		t := z0 + z
		d := 1 - a*t
		if d <= 0 {
			return 0, fmt.Errorf("%w: BCa percentile adjustment diverged", ErrDegenerate)
		}
		return numeric.NormalCDF(z0 + t/d), nil
	}
	a1, err := adj(zLo)
	if err != nil {
		return stats.Interval{}, err
	}
	a2, err := adj(zHi)
	if err != nil {
		return stats.Interval{}, err
	}
	if a1 > a2 {
		a1, a2 = a2, a1
	}
	return stats.Interval{
		Lo: stats.QuantileSorted(thetas, math.Max(a1, 1e-12)),
		Hi: stats.QuantileSorted(thetas, math.Min(math.Max(a2, 1e-12), 1)),
	}, nil
}

// RankCI builds the rank-based (order statistic) CI for the F-quantile
// using the large-sample normal approximation of the rank distribution —
// the construction the paper attributes to prior work [10, 26] and notes
// "requires the Gaussian assumption" for comparing rank statistics
// (Sec. 2.4). The selected ranks are
//
//	l = ⌈nF − z·√(nF(1−F))⌉,  u = ⌈nF + z·√(nF(1−F))⌉,  z = Φ⁻¹((1+C)/2),
//
// clamped to [1, n]. The approximation is inaccurate for small n or
// duplicate-heavy samples, which is exactly the failure the paper measures.
func RankCI(samples []float64, f, c float64) (stats.Interval, error) {
	if err := validate(f, c); err != nil {
		return stats.Interval{}, err
	}
	if len(samples) < 2 {
		return stats.Interval{}, fmt.Errorf("%w: need at least 2 samples", ErrDegenerate)
	}
	return RankCISorted(sortedCopy(samples), f, c)
}

// RankCISorted is RankCI for a sample the caller has already sorted
// ascending: the selected ranks index the shared view directly, so building
// several rank CIs (or mixing rank and bootstrap methods) from one draw
// costs a single sort.
func RankCISorted(sorted []float64, f, c float64) (stats.Interval, error) {
	if err := validate(f, c); err != nil {
		return stats.Interval{}, err
	}
	if err := stats.CheckFiniteSorted(sorted); err != nil {
		return stats.Interval{}, err
	}
	n := len(sorted)
	if n < 2 {
		return stats.Interval{}, fmt.Errorf("%w: need at least 2 samples", ErrDegenerate)
	}
	z := numeric.NormalQuantile((1 + c) / 2)
	nf := float64(n) * f
	half := z * math.Sqrt(nf*(1-f))
	l := int(math.Ceil(nf - half))
	u := int(math.Ceil(nf + half))
	if l < 1 {
		l = 1
	}
	if u > n {
		u = n
	}
	if l > u {
		return stats.Interval{}, fmt.Errorf("%w: rank bounds crossed (n=%d too small for F=%g)", ErrDegenerate, n, f)
	}
	return stats.Interval{Lo: sorted[l-1], Hi: sorted[u-1]}, nil
}

// RankCIExact builds the order-statistic CI for the F-quantile using exact
// binomial tail bounds with an α/2 split per side (the distribution-free
// construction of Gibbons & Chakraborti). Provided for completeness beside
// the normal-approximation RankCI the paper's comparison uses.
func RankCIExact(samples []float64, f, c float64) (stats.Interval, error) {
	if err := validate(f, c); err != nil {
		return stats.Interval{}, err
	}
	if len(samples) < 2 {
		return stats.Interval{}, fmt.Errorf("%w: need at least 2 samples", ErrDegenerate)
	}
	return RankCIExactSorted(sortedCopy(samples), f, c)
}

// RankCIExactSorted is RankCIExact for an already ascending-sorted sample.
func RankCIExactSorted(sorted []float64, f, c float64) (stats.Interval, error) {
	if err := validate(f, c); err != nil {
		return stats.Interval{}, err
	}
	if err := stats.CheckFiniteSorted(sorted); err != nil {
		return stats.Interval{}, err
	}
	n := len(sorted)
	if n < 2 {
		return stats.Interval{}, fmt.Errorf("%w: need at least 2 samples", ErrDegenerate)
	}
	alpha := (1 - c) / 2
	// l: largest rank with P(B ≤ l−1) ≤ α/2, so P(x_(l) > θ) ≤ α/2.
	l := 1
	for k := 1; k <= n; k++ {
		if numeric.BinomialCDF(k-1, n, f) <= alpha {
			l = k
		} else {
			break
		}
	}
	// u: smallest rank with P(B ≥ u) ≤ α/2 ⟺ P(B ≤ u−1) ≥ 1−α/2.
	u := n
	for k := n; k >= 1; k-- {
		if 1-numeric.BinomialCDF(k-1, n, f) <= alpha {
			u = k
		} else {
			break
		}
	}
	if l > u {
		return stats.Interval{}, fmt.Errorf("%w: exact rank bounds crossed (n=%d, F=%g)", ErrDegenerate, n, f)
	}
	return stats.Interval{Lo: sorted[l-1], Hi: sorted[u-1]}, nil
}

// ZScoreCI builds the Gaussian-assumption interval x̄ ± z·s/√n at
// confidence c (Sec. 2.4). Under the Gaussian assumption the mean equals
// every central quantile, so the paper applies this method only at the
// median (F = 0.5); callers pass no F. A sample holding NaN or ±Inf is
// refused with an error matching stats.ErrNonFinite.
func ZScoreCI(samples []float64, c float64) (stats.Interval, error) {
	if err := validate(0.5, c); err != nil {
		return stats.Interval{}, err
	}
	n := len(samples)
	if n < 2 {
		return stats.Interval{}, fmt.Errorf("%w: need at least 2 samples", ErrDegenerate)
	}
	// The sample is unsorted, so every value is read.
	for _, x := range samples {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return stats.Interval{}, fmt.Errorf("%w %v", stats.ErrNonFinite, x)
		}
	}
	mean := stats.Mean(samples)
	se := stats.StdDev(samples) / math.Sqrt(float64(n))
	z := numeric.NormalQuantile((1 + c) / 2)
	return stats.Interval{Lo: mean - z*se, Hi: mean + z*se}, nil
}
