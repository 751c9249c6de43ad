package core

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/randx"
	"repro/internal/smc"
	"repro/internal/stats"
)

func sampleNormal(seed uint64, n int, mean, sd float64) []float64 {
	r := randx.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(mean, sd)
	}
	return xs
}

func TestParamsValidate(t *testing.T) {
	good := Params{F: 0.9, C: 0.9}
	if err := good.validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{F: 0, C: 0.9}, {F: 1, C: 0.9}, {F: 0.5, C: 0}, {F: 0.5, C: 1},
		{F: math.NaN(), C: 0.9}, {F: 0.5, C: 0.9, Granularity: -1},
	}
	for _, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("params %+v should be invalid", p)
		}
	}
}

func TestConfidenceIntervalKnownOrderStatistics(t *testing.T) {
	// For N=22, F=0.9, C=0.9 with the paper-literal PerSideC composition:
	// mNeg and mPos determine the CI as order statistics. Verify against a
	// hand-checkable sample 1..22.
	xs := make([]float64, 22)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	iv, err := ConfidenceInterval(xs, Params{F: 0.9, C: 0.9, Composition: PerSideC})
	if err != nil {
		t.Fatal(err)
	}
	// mPos must be 22 here: only M=N=22 reaches C≥0.9 on the positive side
	// (M=21 gives 1−I_0.9(21,2) ≈ 0.66 < 0.9), so Hi = x_(22) = 22.
	if iv.Hi != 22 {
		t.Errorf("Hi = %g, want 22", iv.Hi)
	}
	// The negative side: mNeg is the largest M with I_0.9(M+1, 22−M) ≥ 0.9.
	// Scan with the engine directly to confirm self-consistency.
	wantLo := 0.0
	for m := 0; m <= 22; m++ {
		a, conf := smc.Confidence(m, 22, 0.9)
		if a == smc.Negative && conf >= 0.9 {
			wantLo = float64(m + 1) // CI lower is x_(m+1) for the largest such m
		}
	}
	if iv.Lo != wantLo {
		t.Errorf("Lo = %g, want %g", iv.Lo, wantLo)
	}
	if iv.Lo >= iv.Hi {
		t.Errorf("degenerate interval %+v", iv)
	}
}

func TestConfidenceIntervalMedianSymmetric(t *testing.T) {
	// F=0.5 on 1..n: the CI should be symmetric around the median.
	n := 30
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	iv, err := ConfidenceInterval(xs, Params{F: 0.5, C: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	mid := float64(n+1) / 2
	if math.Abs((mid-iv.Lo)-(iv.Hi-mid)) > 1 {
		t.Errorf("median CI [%g, %g] not symmetric about %g", iv.Lo, iv.Hi, mid)
	}
	if !iv.Contains(mid) {
		t.Errorf("median CI does not contain the sample median")
	}
}

func TestConfidenceIntervalInsufficientSamples(t *testing.T) {
	xs := sampleNormal(1, 10, 0, 1) // 10 < 22 required at F=C=0.9
	_, err := ConfidenceInterval(xs, Params{F: 0.9, C: 0.9})
	if !errors.Is(err, ErrInsufficientSamples) {
		t.Errorf("want ErrInsufficientSamples, got %v", err)
	}
	if _, err := ConfidenceInterval(nil, Params{F: 0.5, C: 0.9}); !errors.Is(err, ErrInsufficientSamples) {
		t.Errorf("empty sample: want ErrInsufficientSamples, got %v", err)
	}
}

func TestConfidenceIntervalExactMinimumSamples(t *testing.T) {
	// Exactly CIMinSamples executions must be sufficient, and one fewer
	// must fail — the consistency contract between eq. 6–8 (at the
	// composition's per-side level) and the CI construction.
	for _, comp := range []Composition{BonferroniSplit, PerSideC} {
		for _, pc := range []struct{ f, c float64 }{
			{0.9, 0.9}, {0.5, 0.9}, {0.5, 0.75}, {0.8, 0.95}, {0.95, 0.99},
		} {
			p := Params{F: pc.f, C: pc.c, Composition: comp}
			n, err := CIMinSamples(p)
			if err != nil {
				t.Fatal(err)
			}
			xs := sampleNormal(7, n, 100, 10)
			if _, err := ConfidenceInterval(xs, p); err != nil {
				t.Errorf("F=%g C=%g comp=%d: CI failed with exactly CIMinSamples=%d: %v",
					pc.f, pc.c, comp, n, err)
			}
			if n > 1 {
				if _, err := ConfidenceInterval(xs[:n-1], p); !errors.Is(err, ErrInsufficientSamples) {
					t.Errorf("F=%g C=%g comp=%d: CI with %d samples should fail", pc.f, pc.c, comp, n-1)
				}
			}
		}
	}
}

func TestCIMinSamplesHeadline(t *testing.T) {
	// Paper-literal composition reproduces eq. 8's 22 at F = C = 0.9; the
	// coverage-correct split needs 29 (eq. 6 at level 0.95).
	if n, err := CIMinSamples(Params{F: 0.9, C: 0.9, Composition: PerSideC}); err != nil || n != 22 {
		t.Errorf("PerSideC: %d, %v; want 22", n, err)
	}
	if n, err := CIMinSamples(Params{F: 0.9, C: 0.9}); err != nil || n != 29 {
		t.Errorf("BonferroniSplit: %d, %v; want 29", n, err)
	}
	if _, err := CIMinSamples(Params{F: 0, C: 0.9}); err == nil {
		t.Error("invalid params should error")
	}
}

func TestConfidenceIntervalAtLeastMirrorsAtMost(t *testing.T) {
	xs := sampleNormal(3, 50, 10, 2)
	ivMost, err := ConfidenceInterval(xs, Params{F: 0.9, C: 0.9, Direction: AtMost})
	if err != nil {
		t.Fatal(err)
	}
	neg := make([]float64, len(xs))
	for i, x := range xs {
		neg[i] = -x
	}
	ivLeast, err := ConfidenceInterval(neg, Params{F: 0.9, C: 0.9, Direction: AtLeast})
	if err != nil {
		t.Fatal(err)
	}
	if ivLeast.Lo != -ivMost.Hi || ivLeast.Hi != -ivMost.Lo {
		t.Errorf("AtLeast on negated data %+v should mirror AtMost %+v", ivLeast, ivMost)
	}
}

// The CI must contain the empirical F-quantile of the sample itself.
func TestConfidenceIntervalContainsEmpiricalQuantileProperty(t *testing.T) {
	f := func(seed uint64, nr uint8, fr uint8) bool {
		n := 22 + int(nr%200)
		fq := 0.3 + 0.4*float64(fr)/255.0 // mid-range F so 22+ samples suffice
		xs := sampleNormal(seed, n, 50, 8)
		iv, err := ConfidenceInterval(xs, Params{F: fq, C: 0.9})
		if err != nil {
			return errors.Is(err, ErrInsufficientSamples)
		}
		q, err := stats.Quantile(xs, fq)
		if err != nil {
			return false
		}
		return iv.Contains(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Coverage: across many trials, the CI must contain the population
// F-quantile with frequency ≥ C (the paper's central claim for SPA,
// Figs. 6–13: SPA error probability stays below 1−C).
func TestConfidenceIntervalCoverage(t *testing.T) {
	const (
		popN   = 20000
		trials = 600
		nSamp  = 22
	)
	pop := make([]float64, popN)
	r := randx.New(99)
	for i := range pop {
		// Bimodal, far from Gaussian — the paper's motivating shape.
		if r.Bernoulli(0.8) {
			pop[i] = r.Normal(1.0, 0.05)
		} else {
			pop[i] = r.Normal(1.4, 0.08)
		}
	}
	for _, fc := range []struct{ f, c float64 }{{0.5, 0.9}, {0.9, 0.9}} {
		p := Params{F: fc.f, C: fc.c}
		truth, err := stats.Quantile(pop, fc.f)
		if err != nil {
			t.Fatal(err)
		}
		// Use the construction's own minimum (22 at the median, 29 at
		// F=0.9) but never fewer than the paper's 22.
		n, err := CIMinSamples(p)
		if err != nil {
			t.Fatal(err)
		}
		if n < nSamp {
			n = nSamp
		}
		miss := 0
		tr := randx.New(7)
		for i := 0; i < trials; i++ {
			xs := make([]float64, n)
			for j := range xs {
				xs[j] = pop[tr.Intn(popN)]
			}
			iv, err := ConfidenceInterval(xs, p)
			if err != nil {
				t.Fatal(err)
			}
			if !iv.Contains(truth) {
				miss++
			}
		}
		errProb := float64(miss) / trials
		if errProb > 1-fc.c+0.03 { // small slack for trial noise
			t.Errorf("F=%g: SPA CI error probability %.3f exceeds 1-C=%.3f",
				fc.f, errProb, 1-fc.c)
		}
	}
}

func TestHypothesisTestDirections(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// 90% of values ≤ 9; property "x ≤ 9.5" holds on 9/10.
	res, err := HypothesisTest(xs, 9.5, Params{F: 0.5, C: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied != 9 {
		t.Errorf("AtMost satisfied = %d, want 9", res.Satisfied)
	}
	res, err = HypothesisTest(xs, 9.5, Params{F: 0.5, C: 0.9, Direction: AtLeast})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied != 1 {
		t.Errorf("AtLeast satisfied = %d, want 1", res.Satisfied)
	}
	if _, err := HypothesisTest(xs, 1, Params{F: 2, C: 0.9}); err == nil {
		t.Error("invalid params should error")
	}
}

func TestPositiveConfidenceBounds(t *testing.T) {
	if PositiveConfidence(0, 22, 0.9) != 0 {
		t.Error("M=0 positive confidence should be 0")
	}
	want := 1 - math.Pow(0.9, 22)
	if got := PositiveConfidence(22, 22, 0.9); math.Abs(got-want) > 1e-12 {
		t.Errorf("M=N: %g, want %g", got, want)
	}
	if !math.IsNaN(PositiveConfidence(5, 0, 0.9)) {
		t.Error("N=0 should be NaN")
	}
	// Monotone in M.
	prev := -1.0
	for m := 0; m <= 22; m++ {
		c := PositiveConfidence(m, 22, 0.9)
		if c < prev-1e-12 {
			t.Fatalf("PositiveConfidence not monotone at M=%d", m)
		}
		prev = c
	}
}

func TestThresholdSweepShape(t *testing.T) {
	// Reproduce the Fig. 4 shape: AtLeast property over increasing
	// thresholds must walk from Positive through None to Negative, with
	// the plotted positive confidence decreasing.
	xs := sampleNormal(11, 22, 1.45, 0.03)
	ths := make([]float64, 21)
	for i := range ths {
		ths[i] = 1.35 + 0.01*float64(i)
	}
	pts, err := ThresholdSweep(xs, ths, Params{F: 0.9, C: 0.9, Direction: AtLeast})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Assertion != smc.Positive {
		t.Errorf("leftmost threshold should converge positive, got %v", pts[0].Assertion)
	}
	if pts[len(pts)-1].Assertion != smc.Negative {
		t.Errorf("rightmost threshold should converge negative, got %v", pts[len(pts)-1].Assertion)
	}
	sawNone := false
	for i := 1; i < len(pts); i++ {
		if pts[i].PositiveConf > pts[i-1].PositiveConf+1e-9 {
			t.Errorf("positive confidence increased at threshold %g", pts[i].Threshold)
		}
		if pts[i].Assertion == smc.Inconclusive {
			sawNone = true
		}
	}
	if !sawNone {
		t.Error("sweep should pass through a None band")
	}
	if _, err := ThresholdSweep(xs, ths, Params{F: 0, C: 0.9}); err == nil {
		t.Error("invalid params should error")
	}
}

// The sweep construction must agree with the exact construction to within
// one granularity step on each side (ablation #1 in DESIGN.md).
func TestSweepMatchesExactProperty(t *testing.T) {
	f := func(seed uint64, dir bool) bool {
		xs := sampleNormal(seed, 40, 100, 15)
		d := AtMost
		if dir {
			d = AtLeast
		}
		p := Params{F: 0.8, C: 0.9, Direction: d, Granularity: 0.05}
		exact, err1 := ConfidenceInterval(xs, p)
		swept, err2 := ConfidenceIntervalSweep(xs, p)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(exact.Lo-swept.Lo) <= p.Granularity+1e-9 &&
			math.Abs(exact.Hi-swept.Hi) <= p.Granularity+1e-9 &&
			swept.Lo <= exact.Lo+1e-9 && swept.Hi >= exact.Hi-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSweepInsufficientSamples(t *testing.T) {
	xs := sampleNormal(1, 5, 0, 1)
	if _, err := ConfidenceIntervalSweep(xs, Params{F: 0.9, C: 0.9}); !errors.Is(err, ErrInsufficientSamples) {
		t.Errorf("want ErrInsufficientSamples, got %v", err)
	}
	if _, err := ConfidenceIntervalSweep(nil, Params{F: 0.5, C: 0.9}); !errors.Is(err, ErrInsufficientSamples) {
		t.Errorf("empty: want ErrInsufficientSamples, got %v", err)
	}
}

func TestSweepDegenerateConstantSample(t *testing.T) {
	xs := make([]float64, 29) // CIMinSamples at F=C=0.9 under the default split
	for i := range xs {
		xs[i] = 3.14
	}
	iv, err := ConfidenceIntervalSweep(xs, Params{F: 0.9, C: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(3.14) {
		t.Errorf("constant-sample sweep CI %+v should contain the constant", iv)
	}
	exact, err := ConfidenceInterval(xs, Params{F: 0.9, C: 0.9})
	if err != nil || exact.Lo != 3.14 || exact.Hi != 3.14 {
		t.Errorf("constant-sample exact CI = %+v, %v", exact, err)
	}
}

// More samples must never widen the exact CI's order-statistic *indices*
// beyond proportionality — concretely, width shrinks stochastically. We
// check the simpler deterministic property: on sorted uniform grids, a
// larger sample gives a narrower normalized CI.
func TestMoreSamplesNarrowerCI(t *testing.T) {
	widths := make([]float64, 0, 3)
	for _, n := range []int{22, 100, 400} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) / float64(n-1) // uniform grid on [0,1]
		}
		iv, err := ConfidenceInterval(xs, Params{F: 0.5, C: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		widths = append(widths, iv.Width())
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(widths))) {
		t.Errorf("CI widths %v should shrink with sample size", widths)
	}
}

// The paper-literal PerSideC composition only guarantees two-sided coverage
// 2C−1; on continuous data at the minimum sample size its error probability
// exceeds 1−C (which is why BonferroniSplit is this library's default — see
// the Composition docs and EXPERIMENTS.md). This test pins that behaviour
// so the difference stays documented and detectable.
func TestPerSideCompositionCoverageGap(t *testing.T) {
	const (
		trials = 800
		nSamp  = 22
		f, c   = 0.5, 0.9
	)
	pop := sampleNormal(1234, 20000, 50, 5)
	truth, err := stats.Quantile(pop, f)
	if err != nil {
		t.Fatal(err)
	}
	miss := map[Composition]int{}
	tr := randx.New(99)
	for i := 0; i < trials; i++ {
		xs := make([]float64, nSamp)
		for j := range xs {
			xs[j] = pop[tr.Intn(len(pop))]
		}
		for _, comp := range []Composition{BonferroniSplit, PerSideC} {
			iv, err := ConfidenceInterval(xs, Params{F: f, C: c, Composition: comp})
			if err != nil {
				t.Fatal(err)
			}
			if !iv.Contains(truth) {
				miss[comp]++
			}
		}
	}
	split := float64(miss[BonferroniSplit]) / trials
	literal := float64(miss[PerSideC]) / trials
	if split > 1-c+0.03 {
		t.Errorf("split composition error %.3f exceeds 1-C", split)
	}
	if literal > 2*(1-c)+0.04 {
		t.Errorf("literal composition error %.3f exceeds its 2(1-C) bound", literal)
	}
	if literal <= split {
		t.Errorf("literal composition (%.3f) should miss more than the split (%.3f)", literal, split)
	}
}

// TestIntervalsRefuseNonFiniteSamples: NaN sorts first and ±Inf sits at an
// end, so a sample holding one used to shift every order statistic; every
// interval entry point now refuses it, in either direction.
func TestIntervalsRefuseNonFiniteSamples(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		xs := []float64{bad}
		for v := 1; v <= 40; v++ {
			xs = append(xs, float64(v))
		}
		xs[0], xs[17] = xs[17], xs[0]
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, dir := range []Direction{AtMost, AtLeast} {
			p := Params{F: 0.5, C: 0.9, Direction: dir}
			for name, build := range map[string]func() (stats.Interval, error){
				"ConfidenceInterval":       func() (stats.Interval, error) { return ConfidenceInterval(xs, p) },
				"ConfidenceIntervalSorted": func() (stats.Interval, error) { return ConfidenceIntervalSorted(sorted, p) },
				"ConfidenceIntervalSweep":  func() (stats.Interval, error) { return ConfidenceIntervalSweep(xs, p) },
			} {
				if iv, err := build(); !errors.Is(err, stats.ErrNonFinite) {
					t.Errorf("%s(%v, %v) = %v, %v; want ErrNonFinite", name, bad, dir, iv, err)
				}
			}
		}
	}
	if _, err := ConfidenceInterval([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
		Params{F: 0.5, C: 0.9}); err != nil {
		t.Fatalf("finite sample refused: %v", err)
	}
}
