package core

import (
	"errors"
	"testing"

	"repro/internal/randx"
)

// noisyRun is a deterministic metric with moderate spread.
func noisyRun(seed uint64) (float64, error) {
	r := randx.New(seed)
	return 100 + r.Normal(0, 4), nil
}

func TestAnalyzeToWidthConverges(t *testing.T) {
	p := Params{F: 0.5, C: 0.9}
	a, err := AnalyzeToWidthWith(FuncCollector(noisyRun), p, WidthOptions{TargetWidth: 1.5, Batch: 8, MaxSamples: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Interval.Width() > 1.5 {
		t.Errorf("returned width %.3f exceeds target", a.Interval.Width())
	}
	if len(a.Samples) < a.MinSamples {
		t.Errorf("fewer samples than the minimum: %d", len(a.Samples))
	}
}

func TestAnalyzeToWidthBudget(t *testing.T) {
	p := Params{F: 0.5, C: 0.9}
	// An impossible target within a tiny budget: the partial result still
	// comes back.
	a, err := AnalyzeToWidthWith(FuncCollector(noisyRun), p, WidthOptions{TargetWidth: 1e-9, MaxSamples: 40, Batch: 4})
	if !errors.Is(err, ErrWidthBudget) {
		t.Fatalf("want ErrWidthBudget, got %v", err)
	}
	if a == nil || len(a.Samples) != 40 {
		t.Errorf("partial analysis missing or wrong size: %+v", a)
	}
	if !a.Interval.IsValid() {
		t.Error("partial interval invalid")
	}
}

func TestAnalyzeToWidthValidation(t *testing.T) {
	p := Params{F: 0.5, C: 0.9}
	if _, err := AnalyzeToWidthWith(FuncCollector(noisyRun), p, WidthOptions{TargetWidth: 0}); err == nil {
		t.Error("zero target should error")
	}
	if _, err := AnalyzeToWidthWith(FuncCollector(noisyRun), Params{F: 0, C: 0.9}, WidthOptions{TargetWidth: 1}); err == nil {
		t.Error("bad params should error")
	}
	if _, err := AnalyzeToWidthWith(FuncCollector(noisyRun), p, WidthOptions{TargetWidth: 1, MaxSamples: 2}); err == nil {
		t.Error("MaxSamples below minimum should error")
	}
	boom := errors.New("boom")
	bad := func(uint64) (float64, error) { return 0, boom }
	if _, err := AnalyzeToWidthWith(FuncCollector(bad), p, WidthOptions{TargetWidth: 1}); !errors.Is(err, boom) {
		t.Errorf("run error not propagated: %v", err)
	}
}

func TestAnalyzeToWidthReplicable(t *testing.T) {
	p := Params{F: 0.8, C: 0.9}
	opts := WidthOptions{TargetWidth: 2.5, Batch: 3, BaseSeed: 5, MaxSamples: 2000}
	a, err := AnalyzeToWidthWith(FuncCollector(noisyRun), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Batch = 7 // different parallelism must not change the outcome
	b, err := AnalyzeToWidthWith(FuncCollector(noisyRun), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Interval != b.Interval || len(a.Samples) != len(b.Samples) {
		t.Errorf("refinement not replicable: %+v/%d vs %+v/%d",
			a.Interval, len(a.Samples), b.Interval, len(b.Samples))
	}
}

func TestWidthAtSamplesShrinks(t *testing.T) {
	xs := sampleNormal(9, 200, 50, 5)
	p := Params{F: 0.5, C: 0.9}
	w22, err := WidthAtSamples(xs, p, 22)
	if err != nil {
		t.Fatal(err)
	}
	w200, err := WidthAtSamples(xs, p, 200)
	if err != nil {
		t.Fatal(err)
	}
	w800, err := WidthAtSamples(xs, p, 800)
	if err != nil {
		t.Fatal(err)
	}
	if !(w22 > w200 && w200 > w800) {
		t.Errorf("projected widths should shrink: %g, %g, %g", w22, w200, w800)
	}
}

func TestWidthAtSamplesValidation(t *testing.T) {
	p := Params{F: 0.5, C: 0.9}
	if _, err := WidthAtSamples(nil, p, 22); err == nil {
		t.Error("empty sample should error")
	}
	if _, err := WidthAtSamples([]float64{1, 2}, p, 2); !errors.Is(err, ErrInsufficientSamples) {
		t.Error("below-minimum projection should error")
	}
	if _, err := WidthAtSamples([]float64{1}, Params{F: 2, C: 0.9}, 22); err == nil {
		t.Error("bad params should error")
	}
}
