package population

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/randx"
	"repro/internal/sim"
)

func smallPop(t *testing.T, runs int) *Population {
	t.Helper()
	pop, err := Generate("swaptions", sim.DefaultConfig(), 0.05, runs, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestGenerate(t *testing.T) {
	pop := smallPop(t, 12)
	if pop.Runs != 12 || pop.Benchmark != "swaptions" {
		t.Errorf("population header wrong: %+v", pop)
	}
	vs, err := pop.Metric(sim.MetricRuntime)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 12 {
		t.Fatalf("runtime vector has %d entries", len(vs))
	}
	for _, v := range vs {
		if v <= 0 {
			t.Error("non-positive runtime")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := smallPop(t, 6)
	b := smallPop(t, 6)
	av, _ := a.Metric(sim.MetricCycles)
	bv, _ := b.Metric(sim.MetricCycles)
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("campaign not replicable at run %d", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("swaptions", sim.DefaultConfig(), 0.05, 0, 0, 1); err == nil {
		t.Error("zero runs should error")
	}
	_, err := NewExecutor(1).Generate(context.Background(), "swaptions", sim.DefaultConfig(), 0.05, MaxRuns+1, 0, RunHooks{})
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxRuns)) {
		t.Errorf("MaxRuns+1 runs: err = %v, want one naming the bound %d", err, MaxRuns)
	}
	if _, err := Generate("nope", sim.DefaultConfig(), 0.05, 2, 0, 1); err == nil {
		t.Error("unknown benchmark should error")
	}
	bad := sim.DefaultConfig()
	bad.Cores = 0
	if _, err := Generate("swaptions", bad, 0.05, 2, 0, 1); err == nil {
		t.Error("bad config should error")
	}
}

func TestMetricUnknown(t *testing.T) {
	pop := FromValues("x", "m", []float64{1, 2})
	if _, err := pop.Metric("other"); err == nil {
		t.Error("unknown metric should error")
	}
}

func TestGroundTruthMatchesQuantile(t *testing.T) {
	pop := FromValues("x", "m", []float64{5, 1, 4, 2, 3})
	gt, err := pop.GroundTruth("m", 0.5)
	if err != nil || gt != 3 {
		t.Errorf("median ground truth = %g, %v", gt, err)
	}
	gt, err = pop.GroundTruth("m", 0.9)
	if err != nil || gt != 5 {
		t.Errorf("0.9 ground truth = %g, %v", gt, err)
	}
	if _, err := pop.GroundTruth("m", 0); err == nil {
		t.Error("F=0 should error")
	}
}

func TestSample(t *testing.T) {
	pop := FromValues("x", "m", []float64{10, 20, 30})
	r := randx.New(1)
	xs, err := pop.Sample("m", 100, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 100 {
		t.Fatalf("sample size %d", len(xs))
	}
	for _, v := range xs {
		if v != 10 && v != 20 && v != 30 {
			t.Fatalf("sampled value %g not in population", v)
		}
	}
	if _, err := pop.Sample("nope", 5, r); err == nil {
		t.Error("unknown metric should error")
	}
	empty := &Population{Metrics: map[string][]float64{"m": {}}}
	if _, err := empty.Sample("m", 5, r); err == nil {
		t.Error("empty vector should error")
	}
}

func TestRounded(t *testing.T) {
	pop := FromValues("x", "m", []float64{1.23456, 1.23499, 2.5})
	r3 := pop.Rounded(3)
	vs, _ := r3.Metric("m")
	if vs[0] != 1.235 || vs[1] != 1.235 {
		t.Errorf("rounding wrong: %v", vs)
	}
	// Original untouched.
	orig, _ := pop.Metric("m")
	if orig[0] != 1.23456 {
		t.Error("Rounded mutated the original")
	}
}

func TestSpeedups(t *testing.T) {
	r := randx.New(2)
	base := []float64{2, 2.2}
	improved := []float64{1, 1.1}
	sp, err := Speedups(base, improved, 1000, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sp {
		if s < 2.0/1.1-1e-9 || s > 2.2/1.0+1e-9 {
			t.Fatalf("speedup %g outside achievable range", s)
		}
	}
	if _, err := Speedups(nil, improved, 5, r); err == nil {
		t.Error("empty base should error")
	}
	if _, err := Speedups(base, []float64{0}, 5, r); err == nil {
		t.Error("zero improved runtime should error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	pop := FromValues("bench", "m", []float64{1.5, 2.5, 3.5})
	pop.BaseSeed = 77
	var buf bytes.Buffer
	if err := pop.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Benchmark != "bench" || back.BaseSeed != 77 || back.Runs != 3 {
		t.Errorf("header mismatch: %+v", back)
	}
	vs, err := back.Metric("m")
	if err != nil || len(vs) != 3 || vs[1] != 2.5 {
		t.Errorf("values mismatch: %v, %v", vs, err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{not json")); err == nil {
		t.Error("garbage should error")
	}
	if _, err := Load(bytes.NewBufferString(`{"benchmark":"x"}`)); err == nil {
		t.Error("missing metrics should error")
	}
}

func TestFromValuesCopies(t *testing.T) {
	src := []float64{1, 2}
	pop := FromValues("x", "m", src)
	src[0] = 99
	vs, _ := pop.Metric("m")
	if vs[0] != 1 {
		t.Error("FromValues should copy its input")
	}
	if math.IsNaN(vs[0]) {
		t.Error("unexpected NaN")
	}
}
