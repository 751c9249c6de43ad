package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/randx"
)

func metricRun(seed uint64) (float64, error) {
	r := randx.New(seed)
	return 100 + r.Normal(0, 5), nil
}

func TestCollectDeterministicOrdering(t *testing.T) {
	a, err := CollectHooks(metricRun, 10, 50, 4, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CollectHooks(metricRun, 10, 50, 13, Hooks{}) // different batch size
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batching changed results at index %d: %g != %g", i, a[i], b[i])
		}
	}
}

func TestCollectRespectsBatchLimit(t *testing.T) {
	var inFlight, peak int64
	run := func(seed uint64) (float64, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		defer atomic.AddInt64(&inFlight, -1)
		return float64(seed), nil
	}
	if _, err := CollectHooks(run, 0, 64, 4, Hooks{}); err != nil {
		t.Fatal(err)
	}
	if peak > 4 {
		t.Errorf("batch limit violated: peak in-flight %d > 4", peak)
	}
}

func TestCollectPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	run := func(seed uint64) (float64, error) {
		if seed == 7 {
			return 0, boom
		}
		return 1, nil
	}
	if _, err := CollectHooks(run, 0, 20, 5, Hooks{}); !errors.Is(err, boom) {
		t.Errorf("want boom, got %v", err)
	}
}

func TestCollectValidation(t *testing.T) {
	if _, err := CollectHooks(nil, 0, 5, 1, Hooks{}); err == nil {
		t.Error("nil RunFunc should error")
	}
	if _, err := CollectHooks(metricRun, 0, 0, 1, Hooks{}); err == nil {
		t.Error("zero samples should error")
	}
}

func TestAnalyzeDefaultsToMinSamples(t *testing.T) {
	a, err := Analyze(metricRun, Params{F: 0.9, C: 0.9}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.MinSamples != 29 || len(a.Samples) != 29 {
		t.Errorf("MinSamples=%d len=%d, want 29/29 under the default split", a.MinSamples, len(a.Samples))
	}
	if !a.Interval.IsValid() {
		t.Errorf("invalid interval %+v", a.Interval)
	}
	// Paper-literal composition keeps the headline 22.
	b, err := Analyze(metricRun, Params{F: 0.9, C: 0.9, Composition: PerSideC}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.MinSamples != 22 || len(b.Samples) != 22 {
		t.Errorf("PerSideC MinSamples=%d len=%d, want 22/22", b.MinSamples, len(b.Samples))
	}
}

func TestAnalyzeRejectsTooFewRequested(t *testing.T) {
	_, err := Analyze(metricRun, Params{F: 0.9, C: 0.9}, Options{Samples: 10})
	if !errors.Is(err, ErrInsufficientSamples) {
		t.Errorf("want ErrInsufficientSamples, got %v", err)
	}
}

func TestAnalyzeMoreSamplesAccepted(t *testing.T) {
	a, err := Analyze(metricRun, Params{F: 0.5, C: 0.9}, Options{Samples: 100, Batch: 8, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != 100 {
		t.Errorf("len = %d, want 100", len(a.Samples))
	}
	// Replicability: same options, same analysis.
	b, err := Analyze(metricRun, Params{F: 0.5, C: 0.9}, Options{Samples: 100, Batch: 3, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Interval != b.Interval {
		t.Errorf("same campaign seeds gave different intervals: %+v vs %+v", a.Interval, b.Interval)
	}
}

func TestAnalyzeInvalidParams(t *testing.T) {
	if _, err := Analyze(metricRun, Params{F: 0, C: 0.9}, Options{}); err == nil {
		t.Error("invalid F should error")
	}
	// F=0.999999 at C=0.9 is fine for MinSamples but enormous; use an F
	// whose positive side cannot converge: none exists in (0,1), so
	// instead exercise the error path via the run error.
	boom := errors.New("boom")
	_, err := Analyze(func(uint64) (float64, error) { return 0, boom }, Params{F: 0.9, C: 0.9}, Options{})
	if !errors.Is(err, boom) {
		t.Errorf("run error should propagate, got %v", err)
	}
}
