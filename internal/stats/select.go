package stats

import "math"

// QuantileIndex returns the 1-based order-statistic index of the
// inverted-CDF F-quantile for sample size n: the smallest i with i/n ≥ F,
// clamped to [1, n]. It is the single source of truth shared by
// QuantileSorted, QuantileSelect and the bootstrap's leave-one-out
// jackknife.
func QuantileIndex(f float64, n int) int {
	i := int(math.Ceil(f * float64(n)))
	// F·n can round up past an integer (0.55·100 is 55.00000000000001),
	// so ceil overshoots by one; step back while i−1 still satisfies
	// (i−1)/n ≥ F.
	for i > 1 && float64(i-1)/float64(n) >= f {
		i--
	}
	if i < 1 {
		i = 1
	}
	if i > n {
		i = n
	}
	return i
}

// QuantileSelect returns the inverted-CDF F-quantile of xs without sorting,
// using in-place quickselect: O(n) expected instead of O(n log n). The slice
// is partially reordered. The returned value is the exact order statistic —
// bit-identical to QuantileSorted on a sorted copy — so callers that own a
// scratch buffer (the bootstrap resampling kernel) use this on the hot path.
// It panics on an empty slice, mirroring QuantileSorted.
func QuantileSelect(xs []float64, f float64) float64 {
	return selectKth(xs, QuantileIndex(f, len(xs))-1)
}

// selectKth places the k-th smallest element (0-based) of xs at index k and
// returns it. Median-of-three quickselect with an insertion-sort tail for
// small partitions; fully deterministic (no randomized pivots), so repeated
// calls on equal input reorder identically.
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for hi-lo > 12 {
		// Median-of-three pivot, leaving xs[lo] ≤ xs[mid] ≤ xs[hi].
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		// Hoare partition around the pivot value.
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	// Insertion sort of the residual window.
	for i := lo + 1; i <= hi; i++ {
		v := xs[i]
		j := i - 1
		for j >= lo && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
	return xs[k]
}
