package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/randx"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/stats"
)

// Fig1 reproduces Figure 1: the runtime distribution of 1000 ferret
// executions on a "real machine" (our hardware-like variant with OS noise
// and colocation), with the F = 0.5 and F = 0.9 proportion values marked.
// The paper's headline features — strong non-Gaussianity with a dominant
// fast mode holding roughly 80 % of the mass — are reproduced.
func (e *Engine) Fig1() (*Table, error) {
	return e.distributionFigure("fig1", VariantHardware,
		"1000 runtimes of ferret benchmark on real machine (hardware-like variant)")
}

// Fig2 reproduces Figure 2: 500 simulated ferret runtimes on the Table 2
// system with 0–4 cycle memory-latency variability injection.
func (e *Engine) Fig2() (*Table, error) {
	return e.distributionFigure("fig2", VariantDefault,
		"500 simulated runtimes of ferret with variability injection")
}

func (e *Engine) distributionFigure(id string, v Variant, title string) (*Table, error) {
	pop, err := e.Population("ferret", v)
	if err != nil {
		return nil, err
	}
	xs, err := pop.Metric(sim.MetricRuntime)
	if err != nil {
		return nil, err
	}
	hist, err := stats.NewHistogram(xs, 25)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Columns: []string{"runtime_s", "count", "histogram"}}
	bars := hist.Render(50)
	for i, c := range hist.Counts {
		t.AddRow(f6(hist.BinCenter(i)), fmt.Sprintf("%d", c), bars[i])
	}
	sorted := append([]float64(nil), xs...)
	stats.SortFloats(sorted)
	q50 := stats.QuantileSorted(sorted, 0.5)
	q90 := stats.QuantileSorted(sorted, 0.9)
	t.Note("proportion values (dashed lines in the paper): F=0.5 → %s s, F=0.9 → %s s", f6(q50), f6(q90))
	t.Note("population: %d runs; CoV = %s", len(xs), f4(stats.CoefficientOfVariation(xs)))
	return t, nil
}

// speedupContext prepares the Fig. 4/5 scenario: ferret on a 512 kB L2
// versus a 1 MB L2, speedup samples from random base/improved pairing
// (Sec. 5.2), and the ground-truth speedup at proportion F from a large
// pairing population.
type speedupContext struct {
	samples []float64
	// sorted is the ascending view of samples; Fig. 4 and Fig. 5 each run
	// several order-statistic constructions over the same draw.
	sorted []float64
	truth  float64
	n      int
	params core.Params
}

func (e *Engine) speedupContext() (*speedupContext, error) {
	base, err := e.Population("ferret", VariantL2Half)
	if err != nil {
		return nil, err
	}
	improved, err := e.Population("ferret", VariantL2Double)
	if err != nil {
		return nil, err
	}
	bv, err := base.Metric(sim.MetricRuntime)
	if err != nil {
		return nil, err
	}
	iv, err := improved.Metric(sim.MetricRuntime)
	if err != nil {
		return nil, err
	}
	// The property of Fig. 4 is "speedup is at least V" with F = C = 0.9.
	params := core.Params{F: 0.9, C: 0.9, Direction: core.AtLeast}
	n, err := e.trialSamples(params.F, params.C)
	if err != nil {
		return nil, err
	}
	r := randx.New(e.opts.Seed ^ 0x4A4A)
	xs, err := population.Speedups(bv, iv, n, r)
	if err != nil {
		return nil, err
	}
	// Ground truth: the speedup achieved by at least 90 % of pairings,
	// i.e. the 0.1-quantile of a large pairing population.
	big, err := population.Speedups(bv, iv, 20000, r.Split(1))
	if err != nil {
		return nil, err
	}
	truth, err := stats.Quantile(big, 1-params.F)
	if err != nil {
		return nil, err
	}
	sorted := append([]float64(nil), xs...)
	stats.SortFloats(sorted)
	return &speedupContext{samples: xs, sorted: sorted, truth: truth, n: n, params: params}, nil
}

// Fig4 reproduces Figure 4: the per-threshold SMC confidence sweep for the
// L2-doubling speedup, showing the converged-positive region, the None
// band (the confidence interval), and the converged-negative region.
func (e *Engine) Fig4() (*Table, error) {
	sc, err := e.speedupContext()
	if err != nil {
		return nil, err
	}
	iv, err := core.ConfidenceIntervalSorted(sc.sorted, sc.params)
	if err != nil {
		return nil, err
	}
	span := iv.Width()
	if span <= 0 {
		span = sc.truth * 0.01
	}
	lo := iv.Lo - span
	step := (iv.Hi + span - lo) / 24
	thresholds := make([]float64, 25)
	for i := range thresholds {
		thresholds[i] = lo + float64(i)*step
	}
	// The sweep's per-threshold tests run at SPA's per-side level so the
	// None band matches the constructed interval.
	side := sc.params
	side.C = 1 - (1-sc.params.C)/2
	pts, err := core.ThresholdSweepSorted(sc.sorted, thresholds, side)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig4",
		Title:   "SMC hypothesis-test confidence per speedup threshold (ferret, L2 512kB→1MB, F=C=0.9)",
		Columns: []string{"threshold", "satisfied", "positive_conf", "assertion"},
	}
	for _, p := range pts {
		t.AddRow(f4(p.Threshold), fmt.Sprintf("%d/%d", p.Satisfied, sc.n), f4(p.PositiveConf), p.Assertion.String())
	}
	t.Note("SPA confidence interval (None band): [%s, %s]; ground-truth speedup at F=0.9: %s",
		f4(iv.Lo), f4(iv.Hi), f4(sc.truth))
	return t, nil
}

// Fig5 reproduces Figure 5: one trial's CIs from the four techniques
// against the population ground truth, for the speedup scenario. The
// quantile-based baselines target the same 0.1-quantile the AtLeast/F=0.9
// property estimates; the Z-score CI carries the Gaussian assumption the
// paper includes for comparison.
func (e *Engine) Fig5() (*Table, error) {
	sc, err := e.speedupContext()
	if err != nil {
		return nil, err
	}
	qf := 1 - sc.params.F // target quantile in AtMost space
	t := &Table{
		ID:      "fig5",
		Title:   "CIs constructed by different techniques for the speedup (one trial)",
		Columns: []string{"method", "lo", "hi", "width", "covers_truth"},
	}
	add := func(name Method, lo, hi float64, produced bool) {
		if !produced {
			t.AddRow(string(name), "-", "-", "-", "null")
			return
		}
		iv := stats.Interval{Lo: lo, Hi: hi}
		t.AddRow(string(name), f4(lo), f4(hi), f4(iv.Width()), fmt.Sprintf("%v", iv.Contains(sc.truth)))
	}
	spaIV, err := core.ConfidenceIntervalSorted(sc.sorted, sc.params)
	if err != nil {
		return nil, err
	}
	add(MethodSPA, spaIV.Lo, spaIV.Hi, true)
	for _, m := range []Method{MethodBootstrap, MethodRank, MethodZScore} {
		f := qf
		if m == MethodZScore {
			f = 0.5 // the Z-score CI has no quantile parameter
		}
		iv, err := e.buildCI(m, sc.samples, sc.sorted, f, sc.params.C, e.opts.Seed^0xF15)
		if err != nil {
			return nil, err
		}
		if iv == nil {
			add(m, 0, 0, false)
			continue
		}
		add(m, iv.Lo, iv.Hi, true)
	}
	t.Note("ground-truth speedup at proportion F=0.9: %s (0.1-quantile of the pairing population)", f4(sc.truth))
	t.Note("case study only — accuracy is evaluated over %d trials in figs 6-13", e.opts.Trials)
	return t, nil
}

// metricFigure runs the Figs. 6–9 protocol over the ferret metric set.
func (e *Engine) metricFigure(id, title string, f float64, methods []Method, width bool, rounded int) (*Table, error) {
	pop, err := e.Population("ferret", VariantDefault)
	if err != nil {
		return nil, err
	}
	cols := []string{"metric"}
	for _, m := range methods {
		if width {
			cols = append(cols, string(m)+"_width")
		} else {
			cols = append(cols, string(m)+"_err", string(m)+"_null")
		}
	}
	t := &Table{ID: id, Title: title, Columns: cols}
	// Metric cells are independent campaigns over the same population, so
	// they fan out; each cell writes its own slot and the rows are emitted
	// in metric order afterwards, keeping the table deterministic.
	all := make([][]MethodEval, len(ferretMetrics))
	err = e.runCells(len(ferretMetrics), func(cell int) error {
		metric := ferretMetrics[cell]
		var evals []MethodEval
		var cellErr error
		if rounded > 0 {
			evals, cellErr = e.EvaluateCIRounded(pop, metric, f, 0.9, methods, rounded)
		} else {
			evals, cellErr = e.EvaluateCI(pop, metric, f, 0.9, methods)
		}
		if cellErr != nil {
			return cellErr
		}
		all[cell] = evals
		return nil
	})
	if err != nil {
		return nil, err
	}
	for cell, metric := range ferretMetrics {
		row := []string{metric}
		for _, ev := range all[cell] {
			if width {
				row = append(row, f4(ev.MeanNormWidth))
			} else {
				row = append(row, f3(ev.ErrProb), pct(ev.NullRate))
			}
		}
		t.AddRow(row...)
	}
	if !width {
		row := []string{"geomean"}
		for i := range methods {
			row = append(row, f3(geomeanErr(i, all)), "")
		}
		t.AddRow(row...)
		t.Note("dashed-line threshold: error probability must stay below 1-C = 0.100")
	}
	n, _ := e.trialSamples(f, 0.9)
	t.Note("%d trials × %d samples per trial, C=0.9, F=%g", e.opts.Trials, n, f)
	return t, nil
}

// Fig6 reproduces Figure 6: CI error probability for ferret metrics at the
// median (F = 0.5) for all four techniques.
func (e *Engine) Fig6() (*Table, error) {
	return e.metricFigure("fig6", "CI error probability, ferret metrics, F=0.5",
		0.5, []Method{MethodSPA, MethodBootstrap, MethodRank, MethodZScore}, false, 0)
}

// Fig7 reproduces Figure 7: mean normalized CI width for the same setting.
func (e *Engine) Fig7() (*Table, error) {
	return e.metricFigure("fig7", "CI width (normalized), ferret metrics, F=0.5",
		0.5, []Method{MethodSPA, MethodBootstrap, MethodRank, MethodZScore}, true, 0)
}

// Fig8 reproduces Figure 8: CI error probability for ferret metrics at
// F = 0.9 (SPA vs bootstrapping; the other methods do not support F≠0.5).
func (e *Engine) Fig8() (*Table, error) {
	return e.metricFigure("fig8", "CI error probability, ferret metrics, F=0.9",
		0.9, []Method{MethodSPA, MethodBootstrap}, false, 0)
}

// Fig9 reproduces Figure 9: CI width for ferret metrics at F = 0.9.
func (e *Engine) Fig9() (*Table, error) {
	return e.metricFigure("fig9", "CI width (normalized), ferret metrics, F=0.9",
		0.9, []Method{MethodSPA, MethodBootstrap}, true, 0)
}

// benchmarkFigure runs the Figs. 10–13 protocol across the benchmark suite
// for one metric.
func (e *Engine) benchmarkFigure(id, title, metric string, width bool) (*Table, error) {
	methods := []Method{MethodSPA, MethodBootstrap}
	cols := []string{"benchmark"}
	for _, m := range methods {
		if width {
			cols = append(cols, string(m)+"_width")
		} else {
			cols = append(cols, string(m)+"_err", string(m)+"_null")
		}
	}
	t := &Table{ID: id, Title: title, Columns: cols}
	// Benchmark cells fan out like metric cells; the Source's single-flight
	// in Population keeps concurrent cells from duplicating simulations.
	all := make([][]MethodEval, len(benchmarks))
	err := e.runCells(len(benchmarks), func(cell int) error {
		pop, cellErr := e.Population(benchmarks[cell], VariantDefault)
		if cellErr != nil {
			return cellErr
		}
		evals, cellErr := e.EvaluateCI(pop, metric, 0.9, 0.9, methods)
		if cellErr != nil {
			return cellErr
		}
		all[cell] = evals
		return nil
	})
	if err != nil {
		return nil, err
	}
	for cell, bench := range benchmarks {
		row := []string{bench}
		for _, ev := range all[cell] {
			if width {
				row = append(row, f4(ev.MeanNormWidth))
			} else {
				row = append(row, f3(ev.ErrProb), pct(ev.NullRate))
			}
		}
		t.AddRow(row...)
	}
	if !width {
		row := []string{"geomean"}
		for i := range methods {
			row = append(row, f3(geomeanErr(i, all)), "")
		}
		t.AddRow(row...)
	}
	n, _ := e.trialSamples(0.9, 0.9)
	t.Note("%d trials × %d samples per trial, F=0.9, C=0.9, metric %s", e.opts.Trials, n, metric)
	return t, nil
}

// Fig10 reproduces Figure 10: error probability across benchmarks for L1
// cache misses per 1k instructions at F = 0.9.
func (e *Engine) Fig10() (*Table, error) {
	return e.benchmarkFigure("fig10", "CI error probability across benchmarks (L1D MPKI), F=0.9",
		sim.MetricL1DMPKI, false)
}

// Fig11 reproduces Figure 11: widths of the Fig. 10 CIs.
func (e *Engine) Fig11() (*Table, error) {
	return e.benchmarkFigure("fig11", "CI width across benchmarks (L1D MPKI), F=0.9",
		sim.MetricL1DMPKI, true)
}

// Fig12 reproduces Figure 12: error probability across benchmarks for the
// L2 cache miss metric at F = 0.9.
func (e *Engine) Fig12() (*Table, error) {
	return e.benchmarkFigure("fig12", "CI error probability across benchmarks (L2 MPKI), F=0.9",
		sim.MetricL2MPKI, false)
}

// Fig13 reproduces Figure 13: widths of the Fig. 12 CIs.
func (e *Engine) Fig13() (*Table, error) {
	return e.benchmarkFigure("fig13", "CI width across benchmarks (L2 MPKI), F=0.9",
		sim.MetricL2MPKI, true)
}

// Fig14 reproduces Figure 14: mean normalized CI width versus requested
// confidence (90 % to 99.9 %) at the median, for the L1D MPKI metric of
// ferret, all four methods.
func (e *Engine) Fig14() (*Table, error) {
	pop, err := e.Population("ferret", VariantDefault)
	if err != nil {
		return nil, err
	}
	methods := []Method{MethodSPA, MethodBootstrap, MethodRank, MethodZScore}
	metric := sim.MetricL1DMPKI
	truth, err := pop.GroundTruth(metric, 0.5)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig14",
		Title:   "Mean normalized CI width vs confidence (ferret L1D MPKI, F=0.5)",
		Columns: []string{"confidence", "SPA", "Bootstrap", "Rank", "Z-score"},
	}
	for _, conf := range []float64{0.90, 0.95, 0.99, 0.999} {
		n, err := e.trialSamples(0.5, conf)
		if err != nil {
			return nil, err
		}
		sums := make([]float64, len(methods))
		counts := make([]int, len(methods))
		root := randx.New(e.opts.Seed ^ 0xF14)
		var sortedBuf []float64
		for trial := 0; trial < e.opts.Fig14Trials; trial++ {
			r := root.Split(uint64(trial))
			xs, err := pop.Sample(metric, n, r)
			if err != nil {
				return nil, err
			}
			sortedBuf = append(sortedBuf[:0], xs...)
			stats.SortFloats(sortedBuf)
			for i, m := range methods {
				iv, err := e.buildCI(m, xs, sortedBuf, 0.5, conf, uint64(trial)*31+uint64(i))
				if err != nil {
					return nil, err
				}
				if iv == nil {
					continue
				}
				sums[i] += iv.Width()
				counts[i]++
			}
		}
		row := []string{fmt.Sprintf("%.1f%%", conf*100)}
		for i := range methods {
			if counts[i] == 0 || truth == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, f4(sums[i]/float64(counts[i])/truth))
		}
		t.AddRow(row...)
	}
	t.Note("%d trials per confidence; the F=0.5 two-sided minimum stays below the standard draw, so every confidence uses the same sample count", e.opts.Fig14Trials)
	return t, nil
}

// Fig15 reproduces Figure 15: the Fig. 8 experiment redone with every
// metric rounded to 3 decimals, provoking duplicate data and frequent
// bootstrap failures.
func (e *Engine) Fig15() (*Table, error) {
	return e.metricFigure("fig15", "Fig. 8 with metrics rounded to 3 decimals (duplicate data)",
		0.9, []Method{MethodSPA, MethodBootstrap}, false, 3)
}

// MinSamplesTable reproduces the Sec. 4.3 analysis: the minimum executions
// for the hypothesis test (eq. 8) and for SPA's two-sided CI, over a grid
// of (F, C).
func MinSamplesTable() (*Table, error) {
	t := &Table{
		ID:      "minsamples",
		Title:   "Minimum executions required (eq. 6-8 and SPA's two-sided CI minimum)",
		Columns: []string{"F", "C", "N+ (eq.6)", "N- (eq.7)", "hypothesis test (eq.8)", "SPA CI (split)"},
	}
	for _, f := range []float64{0.5, 0.8, 0.9, 0.95, 0.99} {
		for _, c := range []float64{0.9, 0.95, 0.99} {
			np, err := smc.MinSamplesPositive(f, c)
			if err != nil {
				return nil, err
			}
			nn, err := smc.MinSamplesNegative(f, c)
			if err != nil {
				return nil, err
			}
			nh, err := smc.MinSamples(f, c)
			if err != nil {
				return nil, err
			}
			nci, err := core.CIMinSamples(core.Params{F: f, C: c})
			if err != nil {
				return nil, err
			}
			t.AddRow(f3(f), f3(c), fmt.Sprintf("%d", np), fmt.Sprintf("%d", nn),
				fmt.Sprintf("%d", nh), fmt.Sprintf("%d", nci))
		}
	}
	t.Note("the paper's headline: at F=C=0.9 a hypothesis test needs 22 all-true samples (N+) and 1 all-false (N-)")
	return t, nil
}

// CoVTable reproduces the Sec. 6 dispersion statistics: the coefficient of
// variation across ferret metrics and across benchmarks for L1D MPKI.
func (e *Engine) CoVTable() (*Table, error) {
	t := &Table{
		ID:      "cov",
		Title:   "Coefficients of variation (Sec. 6: ferret metrics 0.022-0.117; L1 MPKI across benchmarks 0.0002-0.127)",
		Columns: []string{"scope", "name", "cov"},
	}
	pop, err := e.Population("ferret", VariantDefault)
	if err != nil {
		return nil, err
	}
	for _, metric := range sortedMetricNames(pop) {
		vs, _ := pop.Metric(metric)
		t.AddRow("ferret metric", metric, f4(stats.CoefficientOfVariation(vs)))
	}
	for _, bench := range benchmarks {
		bp, err := e.Population(bench, VariantDefault)
		if err != nil {
			return nil, err
		}
		vs, err := bp.Metric(sim.MetricL1DMPKI)
		if err != nil {
			return nil, err
		}
		t.AddRow("benchmark l1d_mpki", bench, f4(stats.CoefficientOfVariation(vs)))
	}
	return t, nil
}
