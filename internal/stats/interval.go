package stats

import "math"

// Interval is a closed confidence interval [Lo, Hi] for a population value.
// It is shared by every CI construction method in the repository (SPA,
// bootstrapping, rank testing, Z-score) so the experiment harness can
// compare them uniformly.
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether x lies inside the closed interval. This is the
// coverage check of the paper's Sec. 5.4: a CI construction is "accurate on
// a trial" when its interval covers the population ground-truth value.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// IsValid reports Lo ≤ Hi with both endpoints finite.
func (iv Interval) IsValid() bool {
	return !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi) &&
		!math.IsInf(iv.Lo, 0) && !math.IsInf(iv.Hi, 0) && iv.Lo <= iv.Hi
}
