package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// seedFn is a deterministic pseudo-metric: value is a fixed function of
// the absolute seed, so any correct collector returns the same slice.
func seedFn(seed uint64) (float64, error) {
	return float64(seed%97) + float64(seed%13)/100, nil
}

// recordingCollector wraps FuncCollector and records every Collect call,
// to verify which (baseSeed, n) windows the entry points request.
type recordingCollector struct {
	calls []struct {
		base uint64
		n    int
	}
	inner FuncCollector
}

func (rc *recordingCollector) Collect(baseSeed uint64, n, batch int, h Hooks) ([]float64, error) {
	rc.calls = append(rc.calls, struct {
		base uint64
		n    int
	}{baseSeed, n})
	return rc.inner.Collect(baseSeed, n, batch, h)
}

func TestFuncCollectorMatchesCollectHooks(t *testing.T) {
	want, err := CollectHooks(seedFn, 100, 25, 4, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := FuncCollector(seedFn).Collect(100, 25, 4, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %g != %g", i, got[i], want[i])
		}
	}
}

func TestCollectOrderIndependentOfBatch(t *testing.T) {
	// The fixed worker-pool must preserve seed-offset ordering for every
	// pool size, including 1 (sequential) and > n (all in flight).
	want, err := CollectHooks(seedFn, 7, 40, 1, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{0, 2, 3, 16, 100} {
		got, err := CollectHooks(seedFn, 7, 40, batch, Hooks{})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch %d sample %d: %g != %g", batch, i, got[i], want[i])
			}
		}
	}
}

func TestAnalyzeWithNilCollector(t *testing.T) {
	if _, err := AnalyzeWith(nil, Params{F: 0.5, C: 0.9}, Options{}); !errors.Is(err, errNilCollector) {
		t.Errorf("want errNilCollector, got %v", err)
	}
	if _, err := AnalyzeToWidthWith(nil, Params{F: 0.5, C: 0.9}, WidthOptions{TargetWidth: 1}); !errors.Is(err, errNilCollector) {
		t.Errorf("AnalyzeToWidthWith: want errNilCollector, got %v", err)
	}
}

func TestAnalyzeWithCustomCollectorMatchesAnalyze(t *testing.T) {
	p := Params{F: 0.5, C: 0.9}
	opts := Options{Samples: 80, BaseSeed: 11}
	want, err := Analyze(seedFn, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	rc := &recordingCollector{inner: FuncCollector(seedFn)}
	got, err := AnalyzeWith(rc, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Interval != want.Interval {
		t.Errorf("intervals differ: %+v vs %+v", got.Interval, want.Interval)
	}
	if len(rc.calls) != 1 || rc.calls[0].base != 11 || rc.calls[0].n != 80 {
		t.Errorf("unexpected collect calls: %+v", rc.calls)
	}
}

func TestAnalyzeToWidthWithRequestsAbsoluteSeeds(t *testing.T) {
	// The adaptive loop must hand collectors absolute seed windows
	// (BaseSeed+consumed), not zero-based ones it shifts afterwards —
	// remote backends only see the base seed they are given.
	p := Params{F: 0.5, C: 0.9}
	w := WidthOptions{TargetWidth: 5, MaxSamples: 400, BaseSeed: 1000}
	rc := &recordingCollector{inner: FuncCollector(seedFn)}
	got, err := AnalyzeToWidthWith(rc, p, w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeToWidthWith(FuncCollector(seedFn), p, w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Interval != want.Interval || len(got.Samples) != len(want.Samples) {
		t.Errorf("collector-backed adaptive run differs: %+v vs %+v", got.Interval, want.Interval)
	}
	next := uint64(1000)
	for i, c := range rc.calls {
		if c.base != next {
			t.Fatalf("call %d asked for base %d, want %d (absolute, contiguous)", i, c.base, next)
		}
		next += uint64(c.n)
	}
}

func TestCollectPoolPropagatesErrorsFromAnyWorker(t *testing.T) {
	bad := func(seed uint64) (float64, error) {
		if seed%7 == 0 {
			return 0, fmt.Errorf("seed %d broke", seed)
		}
		return 1, nil
	}
	_, err := CollectHooks(bad, 0, 20, 3, Hooks{})
	if err == nil {
		t.Fatal("pool should propagate run errors")
	}
	for _, s := range []string{"seed 0", "seed 7", "seed 14"} {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("joined error missing %q: %v", s, err)
		}
	}
}
