package smc

import (
	"errors"
	"fmt"

	"repro/internal/numeric"
	"repro/internal/stats"
)

// ProportionInterval returns the two-sided Clopper–Pearson confidence
// interval for the satisfaction probability p itself, given M successes in
// N samples at confidence c. This complements the hypothesis-testing API:
// instead of asking "is p ≥ F?", it reports the range of F values any such
// test could not reject — which is how SPA's per-property uncertainty is
// best summarized when no specific threshold is of interest.
//
// The bounds are the exact beta-quantile forms: with α = 1−c,
//
//	lower = BetaQuantile(α/2; M, N−M+1)     (0 when M = 0)
//	upper = BetaQuantile(1−α/2; M+1, N−M)   (1 when M = N)
//
// Coverage is ≥ c for every N and p, by the same argument as eq. 4.
func ProportionInterval(m, n int, c float64) (stats.Interval, error) {
	if n <= 0 || m < 0 || m > n {
		return stats.Interval{}, fmt.Errorf("smc: invalid counts M=%d, N=%d", m, n)
	}
	if c <= 0 || c >= 1 {
		return stats.Interval{}, errors.New("smc: confidence outside (0,1)")
	}
	// The inversions are memoized by (n, m, c) — campaigns re-derive the
	// same Clopper–Pearson bounds for every trial at a fixed sample size,
	// and the cache returns the exact bits the uncached path computes.
	alpha := 1 - c
	lo := 0.0
	if m > 0 {
		v, err := numeric.BetaQuantileCached(alpha/2, float64(m), float64(n-m)+1)
		if err != nil {
			return stats.Interval{}, err
		}
		lo = v
	}
	hi := 1.0
	if m < n {
		v, err := numeric.BetaQuantileCached(1-alpha/2, float64(m)+1, float64(n-m))
		if err != nil {
			return stats.Interval{}, err
		}
		hi = v
	}
	return stats.Interval{Lo: lo, Hi: hi}, nil
}
