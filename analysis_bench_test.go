package repro

import (
	"math"
	"testing"

	"repro/internal/ci"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/randx"
	"repro/internal/sim"
	"repro/internal/smc"
)

// analysisSample builds the n=1000 lognormal-ish sample the analysis-kernel
// benchmarks share: continuous (no BCa degeneracy) with a mild heavy tail,
// shaped like the simulator's runtime populations.
func analysisSample(n int) []float64 {
	r := randx.New(42)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Exp(r.Normal(0, 0.15))
	}
	return xs
}

// BenchmarkBootstrapBCa measures the full BCa construction — B resamples,
// bias correction, jackknife acceleration — at the paper-scale setting
// n=1000, B=2000 that dominates figure generation post-popcache.
func BenchmarkBootstrapBCa(b *testing.B) {
	xs := analysisSample(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ci.BootstrapBCa(xs, 0.5, 0.9, ci.BootstrapOptions{Resamples: 2000, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClopperPearsonCI measures the exact Clopper–Pearson proportion
// interval (two BetaQuantile inversions) plus SPA's order-statistic CI,
// the per-trial analysis cost of every campaign.
func BenchmarkClopperPearsonCI(b *testing.B) {
	xs := analysisSample(1000)
	p := core.Params{F: 0.9, C: 0.9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smc.ProportionInterval(893, 1000, 0.95); err != nil {
			b.Fatal(err)
		}
		if _, err := core.ConfidenceInterval(xs, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateCI measures one full CI-evaluation campaign cell
// (trials × methods over one population metric) — the unit the figure
// engine fans out over.
func BenchmarkEvaluateCI(b *testing.B) {
	e := engine()
	pop, err := e.Population("ferret", exp.VariantDefault)
	if err != nil {
		b.Fatal(err)
	}
	methods := []exp.Method{exp.MethodSPA, exp.MethodBootstrap, exp.MethodRank, exp.MethodZScore}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvaluateCI(pop, sim.MetricRuntime, 0.5, 0.9, methods); err != nil {
			b.Fatal(err)
		}
	}
}
