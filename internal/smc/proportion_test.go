package smc

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

func TestProportionIntervalValidation(t *testing.T) {
	if _, err := ProportionInterval(0, 0, 0.9); err == nil {
		t.Error("N=0 should error")
	}
	if _, err := ProportionInterval(-1, 5, 0.9); err == nil {
		t.Error("M<0 should error")
	}
	if _, err := ProportionInterval(6, 5, 0.9); err == nil {
		t.Error("M>N should error")
	}
	if _, err := ProportionInterval(3, 5, 1); err == nil {
		t.Error("C=1 should error")
	}
}

func TestProportionIntervalEdges(t *testing.T) {
	// M=0: lower bound exactly 0; upper = 1-(α/2)^(1/N).
	iv, err := ProportionInterval(0, 22, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 0 {
		t.Errorf("M=0 lower = %g", iv.Lo)
	}
	wantHi := 1 - math.Pow(0.05, 1.0/22)
	if math.Abs(iv.Hi-wantHi) > 1e-9 {
		t.Errorf("M=0 upper = %g, want %g", iv.Hi, wantHi)
	}
	// M=N: upper exactly 1; lower = (α/2)^(1/N).
	iv, err = ProportionInterval(22, 22, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Hi != 1 {
		t.Errorf("M=N upper = %g", iv.Hi)
	}
	wantLo := math.Pow(0.05, 1.0/22)
	if math.Abs(iv.Lo-wantLo) > 1e-9 {
		t.Errorf("M=N lower = %g, want %g", iv.Lo, wantLo)
	}
}

// Exact coverage: across many Bernoulli samples, the CP interval covers the
// true p at least C of the time.
func TestProportionIntervalCoverage(t *testing.T) {
	const trials, n, c = 500, 22, 0.9
	for _, p := range []float64{0.1, 0.5, 0.9} {
		misses := 0
		r := randx.New(321)
		for i := 0; i < trials; i++ {
			m := 0
			for j := 0; j < n; j++ {
				if r.Bernoulli(p) {
					m++
				}
			}
			iv, err := ProportionInterval(m, n, c)
			if err != nil {
				t.Fatal(err)
			}
			if !iv.Contains(p) {
				misses++
			}
		}
		if rate := float64(misses) / trials; rate > 1-c+0.03 {
			t.Errorf("p=%g: miss rate %.3f exceeds %.3f", p, rate, 1-c)
		}
	}
}

// The interval must contain the point estimate M/N and be ordered.
func TestProportionIntervalContainsEstimateProperty(t *testing.T) {
	f := func(mr, nr uint8, cr uint16) bool {
		n := int(nr%100) + 1
		m := int(mr) % (n + 1)
		c := 0.5 + 0.49*float64(cr%1000)/1000.0
		iv, err := ProportionInterval(m, n, c)
		if err != nil {
			return false
		}
		if !(iv.Lo <= iv.Hi && iv.Lo >= 0 && iv.Hi <= 1) {
			return false
		}
		return iv.Contains(float64(m) / float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Consistency with the hypothesis test: if the CP test asserts positive for
// threshold F at confidence c, then F must lie at or below the interval's
// upper bound; a negative assertion pins F above the lower bound.
func TestProportionIntervalConsistentWithAssertions(t *testing.T) {
	for _, tc := range []struct{ m, n int }{{20, 22}, {5, 22}, {11, 22}, {40, 45}} {
		iv, err := ProportionInterval(tc.m, tc.n, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []float64{0.05, 0.3, 0.5, 0.7, 0.95} {
			a, conf := Confidence(tc.m, tc.n, f)
			if conf < 0.95 { // interval uses α/2 per side
				continue
			}
			switch a {
			case Positive:
				if f > iv.Hi+1e-9 {
					t.Errorf("M=%d N=%d: positive at F=%g but interval %+v", tc.m, tc.n, f, iv)
				}
			case Negative:
				if f < iv.Lo-1e-9 {
					t.Errorf("M=%d N=%d: negative at F=%g but interval %+v", tc.m, tc.n, f, iv)
				}
			}
		}
	}
}
