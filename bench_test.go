// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper (regenerating its rows at reduced scale — the same
// code paths cmd/experiments runs at paper scale), plus the ablation
// benchmarks called out in DESIGN.md. Custom metrics are attached via
// b.ReportMetric so `go test -bench` output carries the headline numbers
// (error probabilities, widths, sample counts) alongside timing.
package repro

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/population"
	"repro/internal/randx"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchEngine is shared across benchmarks so populations are simulated
// once; sizes are reduced from the paper's but preserve every shape.
var (
	benchOnce sync.Once
	benchEng  *exp.Engine
	benchOpts = exp.Options{
		Runs: 48, HWRuns: 64, Trials: 80, Fig14Trials: 30,
		Samples: 22, Scale: 0.12, Resamples: 150, Seed: 1,
	}
)

func engine() *exp.Engine {
	benchOnce.Do(func() { benchEng = exp.NewEngine(benchOpts) })
	return benchEng
}

// runExperiment executes one experiment id per iteration and extracts a
// reportable headline number from its rows when given.
func runExperiment(b *testing.B, id string, headline func(*exp.Table) (string, float64)) {
	b.Helper()
	e := engine()
	// Warm the population cache outside the timed region.
	if _, err := e.Run(id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		t, err := e.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.StopTimer()
	if headline != nil && last != nil {
		name, v := headline(last)
		b.ReportMetric(v, name)
	}
	last.Render(io.Discard)
}

// cell parses a table cell as a float (percent signs stripped).
func cell(t *exp.Table, row, col int) float64 {
	s := t.Rows[row][col]
	if n := len(s); n > 0 && s[n-1] == '%' {
		s = s[:n-1]
	}
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// geomeanRow locates the "geomean" row of an error-probability figure.
func geomeanRow(t *exp.Table) int {
	for i, r := range t.Rows {
		if r[0] == "geomean" {
			return i
		}
	}
	return len(t.Rows) - 1
}

// BenchmarkFig01FerretHardwarePopulation regenerates Fig. 1: the bimodal
// hardware-like ferret runtime distribution.
func BenchmarkFig01FerretHardwarePopulation(b *testing.B) {
	runExperiment(b, "fig1", nil)
}

// BenchmarkFig02FerretSimPopulation regenerates Fig. 2: simulated ferret
// runtimes with variability injection.
func BenchmarkFig02FerretSimPopulation(b *testing.B) {
	runExperiment(b, "fig2", nil)
}

// BenchmarkTable1PropertyTemplates regenerates Table 1's template sweep.
func BenchmarkTable1PropertyTemplates(b *testing.B) {
	runExperiment(b, "table1", nil)
}

// BenchmarkTable2SystemParameters renders the Table 2 configuration.
func BenchmarkTable2SystemParameters(b *testing.B) {
	runExperiment(b, "table2", nil)
}

// BenchmarkFig04ThresholdSweep regenerates Fig. 4's per-threshold
// confidences for the L2-doubling speedup.
func BenchmarkFig04ThresholdSweep(b *testing.B) {
	runExperiment(b, "fig4", nil)
}

// BenchmarkFig05CICaseStudy regenerates Fig. 5's one-trial CI comparison.
func BenchmarkFig05CICaseStudy(b *testing.B) {
	runExperiment(b, "fig5", nil)
}

// BenchmarkFig06ErrorProbMedian regenerates Fig. 6 and reports SPA's
// geomean error probability at the median (paper: 0.065, bound 0.1).
func BenchmarkFig06ErrorProbMedian(b *testing.B) {
	runExperiment(b, "fig6", func(t *exp.Table) (string, float64) {
		return "spa-geomean-err", cell(t, geomeanRow(t), 1)
	})
}

// BenchmarkFig07WidthMedian regenerates Fig. 7's normalized widths.
func BenchmarkFig07WidthMedian(b *testing.B) {
	runExperiment(b, "fig7", func(t *exp.Table) (string, float64) {
		return "spa-runtime-width", cell(t, 0, 1)
	})
}

// BenchmarkFig08ErrorProbF90 regenerates Fig. 8 (F=0.9) and reports SPA's
// geomean error probability (paper: 0.081).
func BenchmarkFig08ErrorProbF90(b *testing.B) {
	runExperiment(b, "fig8", func(t *exp.Table) (string, float64) {
		return "spa-geomean-err", cell(t, geomeanRow(t), 1)
	})
}

// BenchmarkFig09WidthF90 regenerates Fig. 9's widths at F=0.9.
func BenchmarkFig09WidthF90(b *testing.B) {
	runExperiment(b, "fig9", nil)
}

// BenchmarkFig10ErrorProbBenchmarks regenerates Fig. 10 (L1D MPKI across
// benchmarks) and reports the bootstrap geomean error (paper: 0.135).
func BenchmarkFig10ErrorProbBenchmarks(b *testing.B) {
	runExperiment(b, "fig10", func(t *exp.Table) (string, float64) {
		return "bootstrap-geomean-err", cell(t, geomeanRow(t), 3)
	})
}

// BenchmarkFig11WidthBenchmarks regenerates Fig. 11.
func BenchmarkFig11WidthBenchmarks(b *testing.B) {
	runExperiment(b, "fig11", nil)
}

// BenchmarkFig12ErrorProbL2 regenerates Fig. 12 (L2 metric).
func BenchmarkFig12ErrorProbL2(b *testing.B) {
	runExperiment(b, "fig12", func(t *exp.Table) (string, float64) {
		return "spa-geomean-err", cell(t, geomeanRow(t), 1)
	})
}

// BenchmarkFig13WidthL2 regenerates Fig. 13.
func BenchmarkFig13WidthL2(b *testing.B) {
	runExperiment(b, "fig13", nil)
}

// BenchmarkFig14WidthVsConfidence regenerates Fig. 14's width-vs-confidence
// sweep and reports the SPA width at 99.9% confidence.
func BenchmarkFig14WidthVsConfidence(b *testing.B) {
	runExperiment(b, "fig14", func(t *exp.Table) (string, float64) {
		return "spa-width-99.9", cell(t, len(t.Rows)-1, 1)
	})
}

// BenchmarkFig15BootstrapFailures regenerates Fig. 15 (3-decimal rounding)
// and reports the bootstrap null rate on the max-load-latency metric.
func BenchmarkFig15BootstrapFailures(b *testing.B) {
	runExperiment(b, "fig15", func(t *exp.Table) (string, float64) {
		// max_load_latency row, Bootstrap_null column (percent).
		for i, r := range t.Rows {
			if r[0] == sim.MetricMaxLoadLat {
				return "bootstrap-null-pct", cell(t, i, 4)
			}
		}
		return "bootstrap-null-pct", 0
	})
}

// BenchmarkMinSamples regenerates the Sec. 4.3 minimum-sample table and
// reports the paper's headline count (22 at F=C=0.9).
func BenchmarkMinSamples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.MinSamplesTable()
		if err != nil {
			b.Fatal(err)
		}
		_ = t
	}
	n, err := smc.MinSamples(0.9, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n), "min-samples-F.9-C.9")
}

// BenchmarkCoVTable regenerates the Sec. 6 dispersion table.
func BenchmarkCoVTable(b *testing.B) {
	runExperiment(b, "cov", nil)
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationSweepVsExact compares the paper's granularity-search CI
// construction against the exact order-statistic construction on the same
// samples: identical intervals (to one granularity step), very different
// costs.
func BenchmarkAblationSweepVsExact(b *testing.B) {
	r := randx.New(5)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = r.Normal(100, 10)
	}
	p := core.Params{F: 0.9, C: 0.9, Granularity: 0.01}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ConfidenceInterval(xs, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ConfidenceIntervalSweep(xs, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationVariabilitySources quantifies each injected variability
// source (Sec. 2.2): with everything off the simulator is deterministic
// (CoV 0); each source contributes spread. The CoV of 16 ferret runtimes
// is attached per sub-benchmark.
func BenchmarkAblationVariabilitySources(b *testing.B) {
	cases := []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"none", func(c *sim.Config) { c.JitterMax = -1; c.ASLRPages = 0; c.Thermal.InitSpread = 0 }},
		{"dram-jitter-only", func(c *sim.Config) { c.ASLRPages = 0; c.Thermal.InitSpread = 0 }},
		{"aslr-only", func(c *sim.Config) { c.JitterMax = -1; c.Thermal.InitSpread = 0 }},
		{"thermal-only", func(c *sim.Config) { c.JitterMax = -1; c.ASLRPages = 0 }},
		{"all", func(c *sim.Config) {}},
	}
	for _, cse := range cases {
		b.Run(cse.name, func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cse.mut(&cfg)
			var cov float64
			for i := 0; i < b.N; i++ {
				xs := make([]float64, 16)
				for s := range xs {
					res, err := sim.Run("ferret", cfg, 0.25, uint64(s))
					if err != nil {
						b.Fatal(err)
					}
					xs[s] = float64(res.Cycles)
				}
				cov = stats.CoefficientOfVariation(xs)
			}
			b.ReportMetric(cov*1e4, "cov-e4")
		})
	}
}

// BenchmarkAblationSPRTVsCP compares the sample counts of the two
// sequential SMC engines on the same clear-cut hypothesis: the
// Clopper–Pearson loop (Algorithm 1) needs no indifference assumption;
// Wald's SPRT trades that assumption for fewer samples on easy instances.
func BenchmarkAblationSPRTVsCP(b *testing.B) {
	const p, f, c = 0.98, 0.9, 0.9
	b.Run("clopper-pearson", func(b *testing.B) {
		var samples float64
		for i := 0; i < b.N; i++ {
			r := randx.New(uint64(i) + 1)
			res, err := smc.CheckSequential(smc.SamplerFunc(func() (bool, error) {
				return r.Bernoulli(p), nil
			}), f, c, 0)
			if err != nil {
				b.Fatal(err)
			}
			samples = float64(res.Samples)
		}
		b.ReportMetric(samples, "samples")
	})
	b.Run("sprt", func(b *testing.B) {
		sprt, err := smc.NewSPRT(f, c, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		var samples float64
		for i := 0; i < b.N; i++ {
			r := randx.New(uint64(i) + 1)
			res, err := sprt.Check(smc.SamplerFunc(func() (bool, error) {
				return r.Bernoulli(p), nil
			}), 0)
			if err != nil {
				b.Fatal(err)
			}
			samples = float64(res.Samples)
		}
		b.ReportMetric(samples, "samples")
	})
}

// BenchmarkAblationBatchParallel compares SPA's batched-parallel sample
// collection (Sec. 4.3) against a strictly sequential loop for the same
// 29-execution campaign.
func BenchmarkAblationBatchParallel(b *testing.B) {
	cfg := sim.DefaultConfig()
	run := func(seed uint64) (float64, error) {
		res, err := sim.Run("ferret", cfg, 0.08, seed)
		if err != nil {
			return 0, err
		}
		return res.Metrics[sim.MetricRuntime], nil
	}
	for _, batch := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Collect(run, 1, 29, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed per benchmark
// (supporting data for the substitution argument in DESIGN.md). Each case
// holds one sim.Runner, as a population.Executor arena does: sim.Run's
// pooled arenas are dropped by garbage collections, so whether an op
// rebuilt its machine would depend on GC timing. The suite-cold-shape case
// is one op of spabench's suite-cold work: its 11 entries (the nine
// profiles, canneal on l2half, ferret on l2double) × 10 seeds at scale 0.05,
// the shape the simulator hot path is tuned on.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, bench := range []string{"ferret", "canneal", "swaptions"} {
		b.Run(bench, func(b *testing.B) {
			r := sim.NewRunner()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := r.Run(bench, sim.DefaultConfig(), 0.2, 1)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
	b.Run("suite-cold-shape", func(b *testing.B) {
		type entry struct{ bench, variant string }
		var entries []entry
		for _, bench := range workload.Names() {
			entries = append(entries, entry{bench, "default"})
		}
		entries = append(entries, entry{"canneal", "l2half"}, entry{"ferret", "l2double"})
		r := sim.NewRunner()
		b.ReportAllocs()
		var cycles uint64
		for i := 0; i < b.N; i++ {
			cycles = 0
			for _, e := range entries {
				cfg, err := sim.VariantConfig(e.variant)
				if err != nil {
					b.Fatal(err)
				}
				for seed := uint64(1); seed <= 10; seed++ {
					res, err := r.Run(e.bench, cfg, 0.05, seed)
					if err != nil {
						b.Fatal(err)
					}
					cycles += res.Cycles
				}
			}
		}
		b.ReportMetric(float64(cycles), "sim-cycles")
	})
}

// BenchmarkPopulationGeneration measures parallel campaign throughput.
func BenchmarkPopulationGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := population.Generate("ferret", sim.DefaultConfig(), 0.08, 16, uint64(i)*100, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMSHRWindow quantifies the out-of-order memory window:
// runtime of a memory-bound benchmark as the per-core MSHR bound grows
// (1 = blocking in-order memory).
func BenchmarkAblationMSHRWindow(b *testing.B) {
	for _, mshrs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("mshrs-%d", mshrs), func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.MSHRs = mshrs
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run("ferret", cfg, 0.2, 1)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationMSIvsMESI quantifies the Exclusive state's value: the
// same workload under MSI (every first write pays an upgrade transaction)
// versus MESI (silent E→M on private lines).
func BenchmarkAblationMSIvsMESI(b *testing.B) {
	for _, proto := range []string{"mesi", "msi"} {
		b.Run(proto, func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.CoherenceProtocol = proto
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run("swaptions", cfg, 0.2, 1)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationReplacementPolicy compares cache replacement policies.
// The workload matters: ferret's zipf-skewed shared reuse rewards LRU,
// whereas uniformly random access (canneal) is provably policy-independent
// — so the ablation runs ferret with a pressured 512 kB L2.
func BenchmarkAblationReplacementPolicy(b *testing.B) {
	for _, pol := range []string{"lru", "fifo", "random"} {
		b.Run(pol, func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.ReplacementPolicy = pol
			cfg.L2Size = 512 * 1024
			var mpki float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run("ferret", cfg, 0.4, 1)
				if err != nil {
					b.Fatal(err)
				}
				mpki = res.Metrics[sim.MetricL2MPKI]
			}
			b.ReportMetric(mpki, "l2-mpki")
		})
	}
}

// BenchmarkAblationPrefetcher measures the opt-in next-line prefetcher on
// ferret (default config runs without it). Expect it to HURT here: ferret's
// shared accesses are irregular, so next-line fills pollute the L2 and
// contend for DRAM channels — the classic irregular-workload prefetcher
// pathology (the sequential-stream case where it wins is pinned by
// TestPrefetcherCutsDemandL2Misses).
func BenchmarkAblationPrefetcher(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.PrefetchNextLine = on
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run("ferret", cfg, 0.2, 1)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}
