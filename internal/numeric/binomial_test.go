package numeric

import (
	"math"
	"testing"
)

// logChoose returns ln C(n, k) for 0 ≤ k ≤ n, and NaN otherwise.
func logChoose(n, k int) float64 {
	if k < 0 || n < 0 || k > n {
		return math.NaN()
	}
	ln1, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return ln1 - lk - lnk
}

// binomialPMF returns P(X = k) for X ~ Binom(n, p), computed in log space so
// it stays finite for large n. It is the reference TestBinomialCDFMatchesPMFSum
// checks BinomialCDF against.
func binomialPMF(k, n int, p float64) float64 {
	if k < 0 || k > n || n < 0 || p < 0 || p > 1 {
		return 0
	}
	if p == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if k == n {
			return 1
		}
		return 0
	}
	return math.Exp(logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, 10},
		{10, 5, 252},
		{22, 0, 1},
		{22, 22, 1},
		{52, 5, 2598960},
	}
	for _, c := range cases {
		got := math.Exp(logChoose(c.n, c.k))
		if math.Abs(got-c.want)/c.want > 1e-10 {
			t.Errorf("C(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
	if !math.IsNaN(logChoose(3, 5)) || !math.IsNaN(logChoose(-1, 0)) {
		t.Error("logChoose out of domain should be NaN")
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 7, 22, 100} {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += binomialPMF(k, n, p)
			}
			if math.Abs(sum-1) > 1e-10 {
				t.Errorf("sum PMF(n=%d,p=%g) = %g", n, p, sum)
			}
		}
	}
}

func TestBinomialPMFDegenerate(t *testing.T) {
	if binomialPMF(0, 5, 0) != 1 || binomialPMF(1, 5, 0) != 0 {
		t.Error("p=0 PMF wrong")
	}
	if binomialPMF(5, 5, 1) != 1 || binomialPMF(4, 5, 1) != 0 {
		t.Error("p=1 PMF wrong")
	}
	if binomialPMF(-1, 5, 0.5) != 0 || binomialPMF(6, 5, 0.5) != 0 {
		t.Error("out-of-range k PMF should be 0")
	}
}

func TestBinomialCDFMatchesPMFSum(t *testing.T) {
	for _, n := range []int{3, 22, 60} {
		for _, p := range []float64{0.05, 0.5, 0.9} {
			run := 0.0
			for k := 0; k < n; k++ {
				run += binomialPMF(k, n, p)
				got := BinomialCDF(k, n, p)
				if math.Abs(got-run) > 1e-10 {
					t.Errorf("CDF(%d;%d,%g) = %.12f, PMF sum %.12f", k, n, p, got, run)
				}
			}
		}
	}
}

func TestBinomialCDFEdges(t *testing.T) {
	if BinomialCDF(-1, 10, 0.5) != 0 {
		t.Error("CDF below support should be 0")
	}
	if BinomialCDF(10, 10, 0.5) != 1 || BinomialCDF(42, 10, 0.5) != 1 {
		t.Error("CDF at/above support should be 1")
	}
	if !math.IsNaN(BinomialCDF(2, -1, 0.5)) {
		t.Error("negative n should be NaN")
	}
}
