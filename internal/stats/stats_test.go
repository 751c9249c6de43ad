package stats

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1: mean=5, ss=32, var=32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %g, want %g", got, want)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(want)) > 1e-12 {
		t.Errorf("StdDev = %g", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single sample should be NaN")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	xs := []float64{10, 10, 10, 10}
	if got := CoefficientOfVariation(xs); got != 0 {
		t.Errorf("CoV of constant = %g, want 0", got)
	}
	if !math.IsNaN(CoefficientOfVariation([]float64{-1, 1})) {
		t.Error("CoV with zero mean should be NaN")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean = %g, want 4", got)
	}
	if !math.IsNaN(GeoMean([]float64{1, 0, 2})) {
		t.Error("GeoMean with zero should be NaN")
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Error("GeoMean(nil) should be NaN")
	}
}

func TestGeoMeanWithFloor(t *testing.T) {
	got := GeoMeanWithFloor([]float64{0, 0.1}, 0.001)
	want := math.Sqrt(0.001 * 0.1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("GeoMeanWithFloor = %g, want %g", got, want)
	}
}

func TestQuantileInvertedCDF(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4} // sorted: 1 2 3 4 5
	cases := []struct {
		f    float64
		want float64
	}{
		{0.2, 1}, {0.21, 2}, {0.5, 3}, {0.8, 4}, {0.81, 5}, {1.0, 5}, {0.0001, 1},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.f)
		if err != nil {
			t.Fatalf("Quantile(%g): %v", c.f, err)
		}
		if got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.f, got, c.want)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty sample should error")
	}
	for _, f := range []float64{0, -0.1, 1.1, math.NaN()} {
		if _, err := Quantile([]float64{1}, f); err == nil {
			t.Errorf("Quantile(f=%g) should error", f)
		}
	}
}

// The F-quantile v must satisfy #{x ≤ v}/n ≥ F, and be the smallest sample
// value doing so.
func TestQuantileDefinitionProperty(t *testing.T) {
	f := func(seed uint64, nr uint8, fr uint16) bool {
		n := int(nr%100) + 1
		fq := (float64(fr%999) + 1) / 1000.0
		r := randx.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(0, 10)
		}
		v, err := Quantile(xs, fq)
		if err != nil {
			return false
		}
		atOrBelow := 0
		for _, x := range xs {
			if x <= v {
				atOrBelow++
			}
		}
		if float64(atOrBelow)/float64(n) < fq {
			return false
		}
		// No smaller sample value satisfies the proportion.
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, x := range sorted {
			if x >= v {
				break
			}
			cnt := 0
			for _, y := range xs {
				if y <= x {
					cnt++
				}
			}
			if float64(cnt)/float64(n) >= fq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMedian(t *testing.T) {
	m, err := Median([]float64{9, 1, 5})
	if err != nil || m != 5 {
		t.Errorf("Median = %g, %v", m, err)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil || lo != -1 || hi != 7 {
		t.Errorf("MinMax = %g,%g,%v", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("MinMax(nil) should error")
	}
}

func TestRound(t *testing.T) {
	got := Round([]float64{1.23456, 2.71828}, 3)
	if got[0] != 1.235 || got[1] != 2.718 {
		t.Errorf("Round = %v", got)
	}
	// Rounding creates duplicates from near-equal values.
	dup := Round([]float64{1.0001, 1.0002}, 3)
	if dup[0] != dup[1] {
		t.Error("rounding should merge near-equal values")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4}
	h, err := NewHistogram(xs, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != len(xs) {
		t.Errorf("histogram lost samples: %d != %d", total, len(xs))
	}
	if h.Counts[3] == 0 {
		t.Error("max value should land in last bin")
	}
	if c := h.BinCenter(0); c != 0.5 {
		t.Errorf("BinCenter(0) = %g, want 0.5", c)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 4); err == nil {
		t.Error("empty histogram should error")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Error("zero bins should error")
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h, err := NewHistogram([]float64{2, 2, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("constant-sample histogram lost values: %d", total)
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram([]float64{1, 1, 1, 2}, 2)
	rows := h.Render(10)
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	if len(rows[0]) != 10 {
		t.Errorf("peak bin should render full width, got %q", rows[0])
	}
	if len(rows[1]) >= len(rows[0]) {
		t.Error("smaller bin should render shorter bar")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{7, 1, 3, 5, 9, 11, 13, 15}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Min != 1 || s.Max != 15 {
		t.Errorf("extremes wrong: %+v", s)
	}
	if s.Q1 != 3 || s.Median != 7 || s.Q3 != 11 {
		t.Errorf("quartiles wrong: %+v", s)
	}
	if math.Abs(s.Mean-8) > 1e-12 {
		t.Errorf("mean = %g", s.Mean)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("empty sample should error")
	}
}

func TestSortFloats(t *testing.T) {
	xs := []float64{3, 1, 2}
	SortFloats(xs)
	if xs[0] != 1 || xs[2] != 3 {
		t.Errorf("SortFloats wrong: %v", xs)
	}
}

func TestCheckFiniteSorted(t *testing.T) {
	for _, xs := range [][]float64{nil, {1}, {-3, 0, 2.5}, {math.MaxFloat64}} {
		if err := CheckFiniteSorted(xs); err != nil {
			t.Errorf("CheckFiniteSorted(%v) = %v", xs, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		xs := []float64{3, bad, 1, 2}
		SortFloats(xs)
		if err := CheckFiniteSorted(xs); !errors.Is(err, ErrNonFinite) {
			t.Errorf("CheckFiniteSorted(%v) = %v, want ErrNonFinite", xs, err)
		}
	}
}
