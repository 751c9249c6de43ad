package stats

import (
	"math"
	"sort"
	"testing"

	"repro/internal/randx"
)

// TestQuantileSelectMatchesQuantileSorted is the quickselect property test:
// for random samples (continuous, tie-heavy, constant, reversed) and a grid
// of quantile levels, QuantileSelect must return the exact order statistic
// the sort-based path returns — same bits, not approximately.
func TestQuantileSelectMatchesQuantileSorted(t *testing.T) {
	r := randx.New(77)
	gen := map[string]func(n int) []float64{
		"continuous": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.Normal(0, 1)
			}
			return xs
		},
		"ties": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(r.Intn(5))
			}
			return xs
		},
		"constant": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 3.25
			}
			return xs
		},
		"reversed": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		},
	}
	fs := []float64{0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.999}
	for name, g := range gen {
		for _, n := range []int{1, 2, 3, 12, 13, 100, 1000} {
			xs := g(n)
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, f := range fs {
				want := QuantileSorted(sorted, f)
				scratch := append([]float64(nil), xs...)
				got := QuantileSelect(scratch, f)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d f=%g: QuantileSelect=%v, QuantileSorted=%v", name, n, f, got, want)
				}
			}
		}
	}
}

// TestQuantileAgreesWithSortedPath pins the public Quantile on the same
// order statistic as QuantileSorted (satellite: the internal read path is
// shared, so the two can never drift).
func TestQuantileAgreesWithSortedPath(t *testing.T) {
	r := randx.New(78)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = r.Normal(10, 3)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, f := range []float64{0.05, 0.5, 0.9} {
		want := QuantileSorted(sorted, f)
		got, err := Quantile(xs, f)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("f=%g: Quantile=%v, QuantileSorted=%v", f, got, want)
		}
	}
}

// TestQuantileIndexAtRoundingBoundaries pins the order statistic where F·n
// rounds up past an integer in float64 (0.55·100 is 55.00000000000001 and
// 0.28·25 is 7.000000000000001, so a bare ceil picks one too many), next to
// decimal levels whose product is exact: the index is the smallest i with
// i/n ≥ F, on the sorted and the quickselect path alike.
func TestQuantileIndexAtRoundingBoundaries(t *testing.T) {
	for _, tc := range []struct {
		f    float64
		n, i int
	}{{0.55, 100, 55}, {0.9, 100, 90}, {0.7, 10, 7}, {0.3, 10, 3}, {0.07, 100, 7}, {0.28, 25, 7}} {
		if got := QuantileIndex(tc.f, tc.n); got != tc.i {
			t.Errorf("QuantileIndex(%g, %d) = %d, want %d", tc.f, tc.n, got, tc.i)
		}
		// xs[k] = k+1, so the quantile value is its 1-based index.
		xs := make([]float64, tc.n)
		for k := range xs {
			xs[k] = float64(k + 1)
		}
		if got := QuantileSorted(xs, tc.f); got != float64(tc.i) {
			t.Errorf("QuantileSorted(F=%g, n=%d) = %g, want order statistic %d", tc.f, tc.n, got, tc.i)
		}
		for k := range xs {
			xs[k] = float64(tc.n - k) // descending: quickselect must reorder
		}
		if got := QuantileSelect(xs, tc.f); got != float64(tc.i) {
			t.Errorf("QuantileSelect(F=%g, n=%d) = %g, want order statistic %d", tc.f, tc.n, got, tc.i)
		}
	}
}
