// Package stats provides the descriptive statistics used throughout the
// repository: moments, quantiles, geometric means, coefficients of variation
// and simple histograms. The quantile estimator matches the "inverted CDF"
// definition (type 1 in the Hyndman–Fan taxonomy), which is the natural
// counterpart of the paper's proportion semantics: the F-quantile is the
// smallest sample value v such that at least an F fraction of samples are
// ≤ v, which is exactly the ground-truth definition of Sec. 5.3.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty reports an operation on an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// ErrNonFinite reports a sample holding NaN or ±Inf. No order statistic of
// such a sample is a measurement, and NaN sorts below every number, so it
// would shift every rank.
var ErrNonFinite = errors.New("stats: non-finite sample value")

// CheckFiniteSorted returns an error matching ErrNonFinite when an
// ascending-sorted sample (sort.Float64s or SortFloats order) holds NaN or
// ±Inf. That order puts NaN and −Inf first and +Inf last, so only the two
// ends are read.
func CheckFiniteSorted(sorted []float64) error {
	if len(sorted) == 0 {
		return nil
	}
	for _, x := range [2]float64{sorted[0], sorted[len(sorted)-1]} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w %v", ErrNonFinite, x)
		}
	}
	return nil
}

// Mean returns the arithmetic mean, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n−1) sample variance, or NaN when fewer
// than two samples are given.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n-1)
}

// StdDev returns the square root of Variance.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoefficientOfVariation returns StdDev/Mean, the dispersion measure the
// paper reports in Sec. 6 (ranging 0.022–0.117 across ferret metrics).
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	return StdDev(xs) / m
}

// GeoMean returns the geometric mean of positive values; any non-positive
// value makes the result NaN. The paper reports geomean error probabilities.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// GeoMeanWithFloor is GeoMean with non-positive entries clamped to floor,
// the conventional dodge when averaging error probabilities that can be
// exactly zero (as the Z-score method's are in Fig. 6).
func GeoMeanWithFloor(xs []float64, floor float64) float64 {
	clamped := make([]float64, len(xs))
	for i, x := range xs {
		if x < floor {
			x = floor
		}
		clamped[i] = x
	}
	return GeoMean(clamped)
}

// Quantile returns the F-quantile of xs under the inverted-CDF definition:
// the smallest sample value v with (#{x ≤ v}/n) ≥ F. F must be in (0, 1];
// F = 1 returns the maximum. The input need not be sorted.
func Quantile(xs []float64, f float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	if f <= 0 || f > 1 || math.IsNaN(f) {
		return math.NaN(), errors.New("stats: quantile proportion out of (0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, f), nil
}

// QuantileSorted is Quantile for an already ascending-sorted slice, with no
// validation; it panics on an empty slice.
func QuantileSorted(sorted []float64, f float64) float64 {
	return sorted[QuantileIndex(f, len(sorted))-1]
}

// SortFloats sorts the slice ascending in place (a naming convenience over
// sort.Float64s for callers already importing this package).
func SortFloats(xs []float64) { sort.Float64s(xs) }

// Median returns the 0.5 inverted-CDF quantile.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// MinMax returns the extrema of xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Round rounds every value to the given number of decimal places, returning
// a new slice. The paper's Fig. 15 rounds simulator output to 3 decimals to
// study bootstrap failures under duplicate data.
func Round(xs []float64, places int) []float64 {
	scale := math.Pow(10, float64(places))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*scale) / scale
	}
	return out
}

// Histogram is a fixed-width binning of a sample.
type Histogram struct {
	Lo, Hi float64 // full range covered
	Counts []int   // one per bin
	Width  float64 // bin width
	N      int     // total samples
}

// NewHistogram bins xs into the given number of equal-width bins spanning
// [min, max]. The maximum value lands in the last bin.
func NewHistogram(xs []float64, bins int) (*Histogram, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if bins <= 0 {
		return nil, errors.New("stats: non-positive bin count")
	}
	lo, hi, _ := MinMax(xs)
	width := (hi - lo) / float64(bins)
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins), Width: width, N: len(xs)}
	for _, x := range xs {
		var b int
		if width > 0 {
			b = int((x - lo) / width)
		}
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		h.Counts[b]++
	}
	return h, nil
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.Width
}

// Render draws the histogram as rows of '#' runes, one row per bin, scaled
// to the given maximum bar width. It is used by the experiment harness to
// print Figs. 1 and 2.
func (h *Histogram) Render(maxBar int) []string {
	peak := 0
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	rows := make([]string, len(h.Counts))
	for i, c := range h.Counts {
		bar := 0
		if peak > 0 {
			bar = c * maxBar / peak
		}
		rows[i] = repeat('#', bar)
	}
	return rows
}

func repeat(r rune, n int) string {
	b := make([]rune, n)
	for i := range b {
		b[i] = r
	}
	return string(b)
}

// Summary is the five-number box-plot summary plus moments. The paper's
// Sec. 2.3 contrasts box plots (sample variability) with confidence
// intervals (population uncertainty); this type exists so both views can
// be reported side by side.
type Summary struct {
	N                 int
	Min, Q1, Median   float64
	Q3, Max           float64
	Mean, StdDev, CoV float64
}

// Summarize computes a Summary, or an error for an empty sample. The sample
// is sorted once and every quantile read routes through QuantileSorted; the
// moments come from a single mean + deviation pass (the arithmetic matches
// Mean/StdDev/CoefficientOfVariation exactly) instead of recomputing the
// mean for each derived statistic.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		N:      len(xs),
		Min:    sorted[0],
		Q1:     QuantileSorted(sorted, 0.25),
		Median: QuantileSorted(sorted, 0.5),
		Q3:     QuantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(xs),
	}
	s.StdDev = math.NaN()
	s.CoV = math.NaN()
	if len(xs) >= 2 {
		sum := 0.0
		for _, x := range xs {
			d := x - s.Mean
			sum += d * d
		}
		s.StdDev = math.Sqrt(sum / float64(len(xs)-1))
		if s.Mean != 0 {
			s.CoV = s.StdDev / s.Mean
		}
	}
	return s, nil
}
