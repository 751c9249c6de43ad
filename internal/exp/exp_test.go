package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/population"
	"repro/internal/sim"
)

// tinyOpts keep unit tests fast; QuickRunAll (quick_exp_test.go) covers the
// full pipeline at a more meaningful size.
func tinyOpts() Options {
	return Options{
		Runs: 32, HWRuns: 32, Trials: 40, Fig14Trials: 10,
		Samples: 22, Scale: 0.06, Resamples: 60, Seed: 3,
	}
}

func TestNewEngineFillsDefaults(t *testing.T) {
	e := NewEngine(Options{})
	def := DefaultOptions()
	if e.Options() != def {
		t.Errorf("zero options should resolve to defaults: %+v vs %+v", e.Options(), def)
	}
	e2 := NewEngine(Options{Runs: 7, Trials: 9})
	if e2.Options().Runs != 7 || e2.Options().Trials != 9 {
		t.Error("explicit options overridden")
	}
	if e2.Options().Scale != def.Scale {
		t.Error("unset options not defaulted")
	}
}

func TestVariantConfigs(t *testing.T) {
	if VariantDefault.Config().L2Size != 3*1024*1024 {
		t.Error("default variant should be the Table 2 system")
	}
	if VariantL2Half.Config().L2Size != 512*1024 {
		t.Error("l2half should shrink the L2")
	}
	if VariantL2Double.Config().L2Size != 1024*1024 {
		t.Error("l2double should be 1MB")
	}
	if VariantHardware.Config().ColocationProb == 0 {
		t.Error("hardware variant should enable colocation")
	}
	names := map[Variant]string{
		VariantDefault: "default", VariantHardware: "hardware",
		VariantL2Half: "l2-512k", VariantL2Double: "l2-1m",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("variant %d renders %q, want %q", v, v, want)
		}
	}
}

func TestPopulationCaching(t *testing.T) {
	e := NewEngine(tinyOpts())
	a, err := e.Population("swaptions", VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Population("swaptions", VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("population not cached (distinct pointers)")
	}
	if _, err := e.Population("nope", VariantDefault); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestTrialSamplesRaisesToCIMinimum(t *testing.T) {
	e := NewEngine(tinyOpts())
	n, err := e.trialSamples(0.5, 0.9)
	if err != nil || n != 22 {
		t.Errorf("median trials keep the paper's 22: got %d, %v", n, err)
	}
	n, err = e.trialSamples(0.9, 0.9)
	if err != nil || n != 29 {
		t.Errorf("F=0.9 trials need SPA's two-sided minimum 29: got %d, %v", n, err)
	}
}

func TestEvaluateCIProtocol(t *testing.T) {
	e := NewEngine(tinyOpts())
	// Synthetic population with a known spread: coverage counts must be
	// internally consistent.
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i)
	}
	pop := &population.Population{Benchmark: "synth", Runs: len(vals), Metrics: map[string][]float64{"m": vals}}
	methods := []Method{MethodSPA, MethodBootstrap, MethodRank, MethodZScore}
	evals, err := e.EvaluateCI(pop, "m", 0.5, 0.9, methods)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != len(methods) {
		t.Fatalf("got %d evals", len(evals))
	}
	for _, ev := range evals {
		if ev.Trials != e.Options().Trials {
			t.Errorf("%s: %d trials, want %d", ev.Method, ev.Trials, e.Options().Trials)
		}
		if ev.Misses+ev.Nulls > ev.Trials {
			t.Errorf("%s: inconsistent counts %+v", ev.Method, ev)
		}
		if ev.ErrProb < 0 || ev.ErrProb > 1 || ev.NullRate < 0 || ev.NullRate > 1 {
			t.Errorf("%s: rates out of range %+v", ev.Method, ev)
		}
		if ev.Method == MethodSPA && ev.NullRate != 0 {
			t.Error("SPA never abstains")
		}
	}
	// SPA coverage on a benign population should be well within spec.
	if evals[0].ErrProb > 0.1+0.08 {
		t.Errorf("SPA error %.3f way above spec on uniform population", evals[0].ErrProb)
	}
	if _, err := e.EvaluateCI(pop, "missing", 0.5, 0.9, methods); err == nil {
		t.Error("unknown metric should error")
	}
	if _, err := e.EvaluateCI(pop, "m", 0.5, 0.9, []Method{"bogus"}); err == nil {
		t.Error("unknown method should error")
	}
}

func TestEvaluateCIRoundedTriggersNulls(t *testing.T) {
	e := NewEngine(tinyOpts())
	// Values that collapse onto very few distinct points after rounding.
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = 10 + 0.0001*float64(i%3)
	}
	pop := &population.Population{Benchmark: "dup", Runs: len(vals), Metrics: map[string][]float64{"m": vals}}
	evals, err := e.EvaluateCIRounded(pop, "m", 0.5, 0.9, []Method{MethodBootstrap}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if evals[0].NullRate == 0 {
		t.Error("rounding to 3 decimals should provoke bootstrap nulls on duplicate-heavy data")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bee"}}
	tab.AddRow("1", "2")
	tab.AddRow("longer", "4")
	tab.Note("hello %d", 7)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, frag := range []string{"== x: demo ==", "a       bee", "longer", "note: hello 7"} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendered table missing %q:\n%s", frag, out)
		}
	}
}

func TestMinSamplesTableHeadline(t *testing.T) {
	tab, err := MinSamplesTable()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range tab.Rows {
		if r[0] == "0.900" && r[1] == "0.900" {
			if r[2] != "22" || r[3] != "1" || r[4] != "22" || r[5] != "29" {
				t.Errorf("F=C=0.9 row wrong: %v", r)
			}
			found = true
		}
	}
	if !found {
		t.Error("F=C=0.9 row missing")
	}
}

func TestTable2MatchesConfig(t *testing.T) {
	tab := Table2()
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, frag := range []string{"4 out-of-order", "3MB/16-way", "MESI directory", "16B links", "90-cycle"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table 2 missing %q", frag)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	e := NewEngine(tinyOpts())
	if _, err := e.Run("fig99"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestExperimentNamesCoverRegistry(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 19 {
		t.Errorf("expected 19 experiments, got %d: %v", len(names), names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate experiment id %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"fig1", "fig15", "table1", "table2", "minsamples", "cov"} {
		if !seen[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

func TestDistributionFigureContent(t *testing.T) {
	e := NewEngine(tinyOpts())
	tab, err := e.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 25 {
		t.Errorf("histogram should have 25 bins, got %d rows", len(tab.Rows))
	}
	total := 0
	for _, r := range tab.Rows {
		var c int
		if _, err := fmtSscan(r[1], &c); err != nil {
			t.Fatalf("bad count cell %q", r[1])
		}
		total += c
	}
	if total != e.Options().Runs {
		t.Errorf("histogram counts sum to %d, want %d", total, e.Options().Runs)
	}
}

// fmtSscan avoids importing fmt solely for one scan in the test body.
func fmtSscan(s string, v *int) (int, error) {
	n := 0
	for _, ch := range s {
		if ch < '0' || ch > '9' {
			break
		}
		n = n*10 + int(ch-'0')
	}
	*v = n
	return 1, nil
}

func TestSpeedupContextConsistency(t *testing.T) {
	e := NewEngine(tinyOpts())
	sc, err := e.speedupContext()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.samples) != sc.n {
		t.Errorf("speedup sample count %d != %d", len(sc.samples), sc.n)
	}
	for _, s := range sc.samples {
		if s <= 0 {
			t.Error("non-positive speedup sample")
		}
	}
	if sc.truth <= 0 {
		t.Error("non-positive ground truth")
	}
	// Ground truth sits below the median of the samples (F=0.9 AtLeast
	// targets the 0.1-quantile).
	med := 0
	for _, s := range sc.samples {
		if s > sc.truth {
			med++
		}
	}
	if med < sc.n/2 {
		t.Errorf("ground truth %.4f should sit low in the speedup distribution", sc.truth)
	}
}

func TestTable1AllTemplatesPresent(t *testing.T) {
	e := NewEngine(tinyOpts())
	tab, err := e.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("Table 1 should demo 9 templates, got %d", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		if r[0] != string(rune('1'+i)) {
			t.Errorf("row %d template id %q", i, r[0])
		}
		if r[3] != "positive" && r[3] != "negative" && r[3] != "none" {
			t.Errorf("row %d verdict %q", i, r[3])
		}
	}
}

func TestCoVTableCoversSuite(t *testing.T) {
	e := NewEngine(tinyOpts())
	tab, err := e.CoVTable()
	if err != nil {
		t.Fatal(err)
	}
	benchRows := 0
	for _, r := range tab.Rows {
		if r[0] == "benchmark l1d_mpki" {
			benchRows++
		}
	}
	if benchRows != len(benchmarks) {
		t.Errorf("CoV table has %d benchmark rows, want %d", benchRows, len(benchmarks))
	}
}

func TestFerretMetricsAreRealMetrics(t *testing.T) {
	e := NewEngine(tinyOpts())
	pop, err := e.Population("ferret", VariantDefault)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ferretMetrics {
		if _, err := pop.Metric(m); err != nil {
			t.Errorf("figure metric %q missing from simulator output: %v", m, err)
		}
	}
	if _, ok := map[string]bool{sim.MetricMaxLoadLat: true}[ferretMetrics[len(ferretMetrics)-1]]; !ok {
		t.Error("max load latency (the integer metric of Sec. 6.4) must be part of the sweep")
	}
}

func TestGeomeanErr(t *testing.T) {
	per := [][]MethodEval{
		{{ErrProb: 0.1}, {ErrProb: 0.2}},
		{{ErrProb: 0.4}, {ErrProb: 0.0}}, // zero floors at 1e-4
	}
	got := geomeanErr(0, per)
	want := 0.2 // sqrt(0.1*0.4)
	if got < want-1e-9 || got > want+1e-9 {
		t.Errorf("geomeanErr = %g, want %g", got, want)
	}
	floored := geomeanErr(1, per)
	if floored <= 0 {
		t.Error("zero entries must be floored, not zero the geomean")
	}
}

func TestAblationTableShape(t *testing.T) {
	e := NewEngine(tinyOpts())
	tab, err := e.AblationTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("ablation should have 5 rows, got %d", len(tab.Rows))
	}
	// The no-injection row must be fully deterministic: CoV ≈ 0 (floating
	// roundoff only), one distinct runtime.
	none := tab.Rows[0]
	if cov, err := strconv.ParseFloat(none[1], 64); err != nil || cov > 1e-12 {
		t.Errorf("deterministic row CoV = %s, want ≈0", none[1])
	}
	if !strings.HasPrefix(none[2], "1/") {
		t.Errorf("deterministic row distinct = %s, want 1/N", none[2])
	}
	// The all-sources row must show variability.
	all := tab.Rows[4]
	if all[1] == "0" {
		t.Error("all-sources row should have nonzero CoV")
	}
}
