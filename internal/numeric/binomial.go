package numeric

import "math"

// BinomialCDF returns P(X ≤ k) for X ~ Binom(n, p), using the identity
// P(X ≤ k) = I_{1−p}(n−k, k+1) with the regularized incomplete beta function.
func BinomialCDF(k, n int, p float64) float64 {
	switch {
	case n < 0 || p < 0 || p > 1:
		return math.NaN()
	case k < 0:
		return 0
	case k >= n:
		return 1
	}
	return RegIncBeta(1-p, float64(n-k), float64(k)+1)
}
