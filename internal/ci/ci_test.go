package ci

import (
	"errors"
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/stats"
)

func normalSample(seed uint64, n int, mean, sd float64) []float64 {
	r := randx.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(mean, sd)
	}
	return xs
}

func TestValidation(t *testing.T) {
	xs := normalSample(1, 22, 0, 1)
	if _, err := BootstrapBCa(xs, 0, 0.9, BootstrapOptions{}); err == nil {
		t.Error("F=0 should error")
	}
	if _, err := BootstrapBCa(xs, 0.5, 1, BootstrapOptions{}); err == nil {
		t.Error("C=1 should error")
	}
	if _, err := RankCI(xs, 1.5, 0.9); err == nil {
		t.Error("F>1 should error")
	}
	if _, err := ZScoreCI(xs, 0); err == nil {
		t.Error("C=0 should error")
	}
}

func TestTooFewSamples(t *testing.T) {
	one := []float64{1}
	for name, err := range map[string]error{
		"bca":   func() error { _, e := BootstrapBCa(one, 0.5, 0.9, BootstrapOptions{}); return e }(),
		"rank":  func() error { _, e := RankCI(one, 0.5, 0.9); return e }(),
		"rankx": func() error { _, e := RankCIExact(one, 0.5, 0.9); return e }(),
		"z":     func() error { _, e := ZScoreCI(one, 0.9); return e }(),
	} {
		if !errors.Is(err, ErrDegenerate) {
			t.Errorf("%s: want ErrDegenerate for single sample, got %v", name, err)
		}
	}
}

func TestBootstrapDeterministicBySeed(t *testing.T) {
	xs := normalSample(2, 22, 10, 2)
	a, err := BootstrapBCa(xs, 0.5, 0.9, BootstrapOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BootstrapBCa(xs, 0.5, 0.9, BootstrapOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed gave different BCa CIs: %+v vs %+v", a, b)
	}
}

func TestBootstrapCoversTruthUsually(t *testing.T) {
	// Gaussian population, median CI at 90%: BCa should cover the true
	// median most of the time (the paper's point is it misses the nominal
	// rate slightly, not wildly).
	miss, null := 0, 0
	const trials = 200
	for i := 0; i < trials; i++ {
		xs := normalSample(uint64(100+i), 22, 50, 5)
		iv, err := BootstrapBCa(xs, 0.5, 0.9, BootstrapOptions{Seed: uint64(i)})
		if errors.Is(err, ErrDegenerate) {
			null++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(50) {
			miss++
		}
	}
	if null > trials/10 {
		t.Errorf("BCa produced %d/%d nulls on continuous data", null, trials)
	}
	rate := float64(miss) / float64(trials-null)
	if rate > 0.25 {
		t.Errorf("BCa miss rate %.3f implausibly high on Gaussian data", rate)
	}
	if rate == 0 {
		t.Error("BCa should not have perfect coverage at n=22")
	}
}

func TestBCaFailsOnDuplicateHeavySample(t *testing.T) {
	// Integer-valued metric: nearly all values identical — the max load
	// latency scenario of Sec. 6.4.
	xs := make([]float64, 22)
	for i := range xs {
		xs[i] = 300
	}
	_, err := BootstrapBCa(xs, 0.5, 0.9, BootstrapOptions{Seed: 1})
	if !errors.Is(err, ErrDegenerate) {
		t.Errorf("constant sample should be degenerate, got %v", err)
	}

	// Rounded data (Fig. 15): few distinct values, median heavily tied.
	r := randx.New(3)
	ys := make([]float64, 22)
	for i := range ys {
		ys[i] = math.Round(10 + r.Normal(0, 0.02)*10) // mostly 100/101-ish ties
	}
	if _, err := BootstrapBCa(ys, 0.5, 0.9, BootstrapOptions{Seed: 2}); err == nil {
		// Not guaranteed for every draw, but for this seed the sample is
		// duplicate-heavy; verify the premise held before asserting.
		distinct := map[float64]bool{}
		for _, v := range ys {
			distinct[v] = true
		}
		if len(distinct) <= 3 {
			t.Errorf("duplicate-heavy sample (%d distinct) should often be degenerate", len(distinct))
		}
	}
}

func TestRankCIKnownRanks(t *testing.T) {
	// n=22, F=0.5, C=0.9: z=1.645, nF=11, half=1.645·√5.5=3.858 ⇒
	// l=⌈7.14⌉=8, u=⌈14.86⌉=15.
	xs := make([]float64, 22)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	iv, err := RankCI(xs, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 8 || iv.Hi != 15 {
		t.Errorf("RankCI = [%g, %g], want [8, 15]", iv.Lo, iv.Hi)
	}
}

func TestRankCIExactKnownRanks(t *testing.T) {
	// n=22, F=0.5, α/2=0.05: P(B≤6)=0.0262 ≤ .05 < P(B≤7)=0.0669 ⇒ l=7;
	// symmetric u=16.
	xs := make([]float64, 22)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	iv, err := RankCIExact(xs, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 7 || iv.Hi != 16 {
		t.Errorf("RankCIExact = [%g, %g], want [7, 16]", iv.Lo, iv.Hi)
	}
}

func TestRankCIExactCoverage(t *testing.T) {
	// The exact construction must achieve ≥ C coverage on continuous data.
	miss := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		xs := normalSample(uint64(7000+i), 22, 0, 1)
		iv, err := RankCIExact(xs, 0.5, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(0) {
			miss++
		}
	}
	if rate := float64(miss) / trials; rate > 0.1+0.03 {
		t.Errorf("exact rank CI miss rate %.3f exceeds nominal 0.1", rate)
	}
}

func TestRankCIUnsortedInputUnchanged(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 15, 11, 14, 12, 13, 20, 16, 19, 17, 18, 22, 21}
	orig := append([]float64(nil), xs...)
	if _, err := RankCI(xs, 0.5, 0.9); err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatal("RankCI mutated its input")
		}
	}
}

func TestRankCIExtremeQuantileSmallN(t *testing.T) {
	xs := normalSample(8, 5, 0, 1)
	// F=0.99 with n=5: ranks clamp to the extremes rather than crossing.
	iv, err := RankCI(xs, 0.99, 0.9)
	if err != nil {
		t.Fatalf("clamped rank CI should still be produced: %v", err)
	}
	if !iv.IsValid() {
		t.Errorf("invalid interval %+v", iv)
	}
}

func TestZScoreCIKnownValue(t *testing.T) {
	// Sample with mean 10, sd 2, n=4: CI = 10 ± 1.645·2/2 = [8.355, 11.645].
	xs := []float64{8, 10, 10, 12}
	iv, err := ZScoreCI(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sd := stats.StdDev(xs)
	want := 1.6448536269514722 * sd / 2
	if math.Abs(iv.Lo-(10-want)) > 1e-9 || math.Abs(iv.Hi-(10+want)) > 1e-9 {
		t.Errorf("ZScoreCI = %+v, want 10±%g", iv, want)
	}
}

func TestZScoreNeverMissesGaussianMedian(t *testing.T) {
	// The paper observes the Z-score CI is "never incorrect" in its trials
	// — it is very conservative. Check a low miss rate on Gaussian data.
	miss := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		xs := normalSample(uint64(5000+i), 22, 100, 10)
		iv, err := ZScoreCI(xs, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(100) {
			miss++
		}
	}
	if rate := float64(miss) / trials; rate > 0.12 {
		t.Errorf("Z-score miss rate %.3f too high for Gaussian data", rate)
	}
}

func TestZScoreWiderThanQuantileCIOnSkewedData(t *testing.T) {
	// The paper's Fig. 7 headline: on non-Gaussian data the Z-score CI is
	// much broader than quantile-based CIs. The mechanism: a small heavy
	// tail inflates the standard deviation (and thus the Z width) while
	// the median order statistics remain inside the tight bulk.
	xs := make([]float64, 22)
	for i := 0; i < 20; i++ {
		xs[i] = 1.0 + 0.001*float64(i) // tight bulk
	}
	xs[20], xs[21] = 3.0, 3.2 // heavy tail
	z, err := ZScoreCI(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	rank, err := RankCIExact(xs, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if z.Width() <= 2*rank.Width() {
		t.Errorf("Z width %.4f should far exceed rank width %.4f on tail-heavy data", z.Width(), rank.Width())
	}
}

// TestConstructionsRefuseNonFiniteSamples puts NaN, +Inf and −Inf in the
// middle of an unsorted sample for every interval construction.
func TestConstructionsRefuseNonFiniteSamples(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		xs := []float64{bad}
		for v := 1; v <= 60; v++ {
			xs = append(xs, float64(v))
		}
		xs[0], xs[30] = xs[30], xs[0]
		opts := BootstrapOptions{Resamples: 50, Seed: 1}
		for name, build := range map[string]func() (stats.Interval, error){
			"BootstrapBCa": func() (stats.Interval, error) { return BootstrapBCa(xs, 0.5, 0.9, opts) },
			"RankCI":       func() (stats.Interval, error) { return RankCI(xs, 0.5, 0.9) },
			"RankCIExact":  func() (stats.Interval, error) { return RankCIExact(xs, 0.5, 0.9) },
			"ZScoreCI":     func() (stats.Interval, error) { return ZScoreCI(xs, 0.9) },
		} {
			if iv, err := build(); !errors.Is(err, stats.ErrNonFinite) {
				t.Errorf("%s with %v = %v, %v; want ErrNonFinite", name, bad, iv, err)
			}
		}
	}
}
