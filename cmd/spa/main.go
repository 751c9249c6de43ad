// Command spa is the standalone SPA analysis tool: given experimental
// measurements (one value per line, or a population JSON produced by
// simrun), it builds SMC-based confidence intervals, runs hypothesis
// tests, reports minimum sample counts, and compares against the prior
// statistical techniques — the push-button workflow of the paper's Fig. 3.
//
// Usage:
//
//	spa ci         -input runtimes.txt -f 0.9 -c 0.9 [-direction atmost]
//	spa test       -input runtimes.txt -threshold 1.1 -f 0.8 -c 0.95
//	spa compare    -input runtimes.txt -f 0.5 -c 0.9
//	spa proportion -input runtimes.txt -threshold 1.1
//	spa hyper      -input runtimes.txt -gap-pct 0.02
//	spa stats      -gem5 'm5out-*/stats.txt' -find ipc
//	spa minsamples -f 0.9 -c 0.9
//
// Measurements can come from a plain text file (-input, one value per
// line), a simrun population (-json pop.json -metric runtime_s), real
// gem5 runs (-gem5 'm5out-*/stats.txt' -metric system.cpu0.ipc), or
// fresh simulations (-sim ferret -runs 100), optionally distributed
// across spaworker processes (-workers host:port,...) with byte-identical
// results. "spa ci -sim ... -target-width W [-sampling stratified]" asks
// the adaptive question a one-entry campaign manifest would, and gets the
// same answer.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/ci"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gem5"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/popcache"
	"repro/internal/population"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/stats"
)

// telemetry is the process-wide observer, built from the global telemetry
// flags in run. Nil (the default) disables all instrumentation; every
// obs call below is nil-safe.
var telemetry *obs.Observer

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spa:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// Global flags come before the subcommand (Parse stops at the first
	// non-flag): spa [-version] [-trace f] [-metrics f] [-pprof addr] <sub> ...
	gfs := flag.NewFlagSet("spa", flag.ContinueOnError)
	gfs.Usage = usage
	version := gfs.Bool("version", false, "print build information and exit")
	var of obs.Flags
	of.Register(gfs)
	if err := gfs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Fprint(os.Stdout, "spa")
		return nil
	}
	o, closeObs, err := of.Start("analyses", os.Stderr)
	if err != nil {
		return err
	}
	telemetry = o
	err = dispatch(gfs.Args())
	if cerr := closeObs(); err == nil {
		err = cerr
	}
	return err
}

func dispatch(args []string) error {
	if len(args) == 0 {
		usage()
		return errors.New("missing subcommand")
	}
	switch args[0] {
	case "ci":
		return runCI(args[1:])
	case "test":
		return runTest(args[1:])
	case "compare":
		return runCompare(args[1:])
	case "minsamples":
		return runMinSamples(args[1:])
	case "proportion":
		return runProportion(args[1:])
	case "hyper":
		return runHyper(args[1:])
	case "stats":
		return runStats(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: spa [global flags] <ci|test|compare|proportion|hyper|minsamples> [flags]
  ci          confidence interval for the metric at proportion F
  test        SMC hypothesis test of "metric ⋈ threshold"
  compare     CI from SPA and the prior techniques side by side
  proportion  Clopper-Pearson interval for a property's satisfaction probability
  hyper       hyperproperty check: executions pairwise within a gap
  stats       list metric names available in a gem5/simrun population
  minsamples  minimum executions required for (F, C)
global flags (before the subcommand): -version, -trace FILE, -metrics FILE,
  -pprof ADDR, -progress — see README "Observability"
data sources: -input FILE | -json POP | -gem5 GLOB | -sim BENCH [-workers host:port,...]
run "spa <subcommand> -h" for flags`)
}

// dataFlags are the shared input flags.
type dataFlags struct {
	input  string
	json   string
	gem5   string
	metric string
	// simulator-backed collection (-sim): measurements come from fresh
	// seeded executions, optionally distributed across spaworkers.
	sim      string
	variant  string
	runs     int
	scale    float64
	simSeed  uint64
	workers  string
	popcache string
}

func (d *dataFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&d.input, "input", "", "text file with one measurement per line (- for stdin)")
	fs.StringVar(&d.json, "json", "", "population JSON produced by simrun")
	fs.StringVar(&d.gem5, "gem5", "", "glob of gem5 stats.txt files, one run per file")
	fs.StringVar(&d.metric, "metric", "runtime_s", "metric name when reading population JSON or gem5 stats or simulating")
	fs.StringVar(&d.sim, "sim", "", "simulate this benchmark to collect the measurements (see internal/workload)")
	fs.StringVar(&d.variant, "variant", "default", "system variant with -sim: default, hardware, l2half or l2double")
	fs.IntVar(&d.runs, "runs", 100, "executions to simulate with -sim (the sample budget with -target-width)")
	fs.Float64Var(&d.scale, "scale", 0.5, "workload scale with -sim")
	fs.Uint64Var(&d.simSeed, "simseed", 1, "base seed with -sim (run i uses simseed+i)")
	fs.StringVar(&d.workers, "workers", "", "comma-separated spaworker addresses to distribute -sim runs across (byte-identical to local)")
	fs.StringVar(&d.popcache, "popcache", "", "content-addressed population cache directory for -sim; hits are byte-identical to re-simulating")
}

// source serves -sim populations and pilot blocks: the -popcache cache
// in front of a coordinator over -workers (in-process when none).
func (d *dataFlags) source() *popcache.Source {
	var cache *popcache.Cache
	if d.popcache != "" {
		cache = popcache.New(d.popcache, 0)
	}
	return &popcache.Source{Cache: cache, Obs: telemetry,
		Coord: &dist.Coordinator{Workers: dist.SplitAddrs(d.workers), Obs: telemetry}}
}

func (d *dataFlags) load() ([]float64, error) {
	switch {
	case d.sim != "":
		cfg, err := sim.VariantConfig(d.variant)
		if err != nil {
			return nil, err
		}
		pop, _, err := d.source().Population(context.Background(),
			popcache.Key{Benchmark: d.sim, Config: cfg, Scale: d.scale, BaseSeed: d.simSeed, Runs: d.runs})
		if err != nil {
			return nil, err
		}
		return pop.Metric(d.metric)
	case d.gem5 != "":
		pop, err := gem5.Population(d.gem5)
		if err != nil {
			return nil, err
		}
		xs, err := pop.Metric(d.metric)
		if err != nil {
			return nil, fmt.Errorf("%w (try a substring with 'spa stats -gem5 ...' to discover names)", err)
		}
		return xs, nil
	case d.json != "":
		f, err := os.Open(d.json)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		pop, err := population.Load(f)
		if err != nil {
			return nil, err
		}
		return pop.Metric(d.metric)
	case d.input == "-":
		return readValues(os.Stdin)
	case d.input != "":
		f, err := os.Open(d.input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return readValues(f)
	default:
		return nil, errors.New("provide -input, -json, -gem5 or -sim")
	}
}

func readValues(f *os.File) ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("line %d: %w %q", line, stats.ErrNonFinite, text)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New("no values read")
	}
	return out, nil
}

func parseDirection(s string) (core.Direction, error) {
	switch s {
	case "atmost", "le", "<=":
		return core.AtMost, nil
	case "atleast", "ge", ">=":
		return core.AtLeast, nil
	default:
		return 0, fmt.Errorf("unknown direction %q (want atmost or atleast)", s)
	}
}

func runCI(args []string) error {
	fs := flag.NewFlagSet("ci", flag.ContinueOnError)
	var d dataFlags
	d.register(fs)
	f := fs.Float64("f", 0.9, "proportion F in (0,1)")
	c := fs.Float64("c", 0.9, "confidence C in (0,1)")
	dir := fs.String("direction", "atmost", "property direction: atmost (metric ≤ v) or atleast (metric ≥ v)")
	sweep := fs.Bool("sweep", false, "use the paper's granularity search instead of the exact construction")
	gran := fs.Float64("granularity", 0, "sweep step (0 = auto)")
	samplingDesign := fs.String("sampling", "", "variance-reduction design with -target-width: plain, stratified or rss (a pilot pass picks the seeds to run)")
	targetWidth := fs.Float64("target-width", 0, "adaptive mode with -sim: add executions round by round until the CI is at most this wide (-runs bounds the budget)")
	pilotScale := fs.Float64("pilot-scale", 0, "pilot workload scale for a -sampling design (0 = half of -scale)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	direction, err := parseDirection(*dir)
	if err != nil {
		return err
	}
	if *targetWidth != 0 || *samplingDesign != "" || *pilotScale != 0 {
		a := manifest.Analysis{Metric: d.metric, F: *f, C: *c,
			TargetWidth: *targetWidth, MaxSamples: d.runs, Sampling: *samplingDesign, PilotScale: *pilotScale}
		if direction == core.AtLeast {
			a.Direction = "atleast"
		}
		return runAdaptiveCI(&d, a, direction)
	}
	p := core.Params{F: *f, C: *c, Direction: direction, Granularity: *gran}
	xs, err := d.load()
	if err != nil {
		return err
	}
	span := telemetry.T().StartSpan("spa.ci", obs.Int("samples", len(xs)),
		obs.F64("f", *f), obs.F64("c", *c), obs.Bool("sweep", *sweep))
	var iv interface{ Width() float64 }
	if *sweep {
		got, err := core.ConfidenceIntervalSweep(xs, p)
		telemetry.CIBuilt("SPA", got.Width(), err)
		if err != nil {
			span.End(obs.Str("error", err.Error()))
			return err
		}
		iv = got
		fmt.Printf("SPA CI (sweep): [%.6g, %.6g]\n", got.Lo, got.Hi)
	} else {
		got, err := core.ConfidenceInterval(xs, p)
		telemetry.CIBuilt("SPA", got.Width(), err)
		if err != nil {
			span.End(obs.Str("error", err.Error()))
			return err
		}
		iv = got
		fmt.Printf("SPA CI: [%.6g, %.6g]\n", got.Lo, got.Hi)
	}
	span.End(obs.F64("width", iv.Width()))
	fmt.Printf("width: %.6g\n", iv.Width())
	fmt.Printf("samples: %d, F=%g, C=%g, property: metric %s v\n", len(xs), *f, *c, direction)
	return nil
}

// runAdaptiveCI is the adaptive arm of "spa ci": the -sim flags and a
// become a one-entry, one-analysis manifest, which manifest.Runner
// answers exactly as it would inside a campaign (through -workers when
// set, in-process otherwise).
func runAdaptiveCI(d *dataFlags, a manifest.Analysis, direction core.Direction) error {
	if d.sim == "" {
		return errors.New("-target-width and -sampling need -sim (they collect, not load)")
	}
	m := &manifest.Manifest{Name: "spa-ci", Seed: d.simSeed, Scale: d.scale,
		Entries:  []manifest.Entry{{Benchmark: d.sim, Variant: d.variant}},
		Analyses: []manifest.Analysis{a}}
	if err := m.Validate(); err != nil {
		return err
	}
	r := &manifest.Runner{Workers: dist.SplitAddrs(d.workers), Obs: telemetry}
	if d.popcache != "" {
		r.PopCache = popcache.New(d.popcache, 0)
	}
	res := r.AnalyzeAdaptive(context.Background(), m, 0, a)
	if res.Err != "" {
		return errors.New(res.Err)
	}
	label := "SPA CI"
	if res.Sampling != "" {
		label = fmt.Sprintf("SPA CI (%s)", res.Sampling)
	}
	fmt.Printf("%s: [%.6g, %.6g]\n", label, res.Interval.Lo, res.Interval.Hi)
	fmt.Printf("width: %.6g\n", res.Interval.Width())
	fmt.Printf("samples: %d, F=%g, C=%g, property: metric %s v\n", res.Samples, res.F, res.C, direction)
	if res.Sampling != "" {
		fmt.Printf("design: %s, pilot runs: %d (scale-reduced)\n", res.Sampling, res.PilotRuns)
	}
	if !res.Converged {
		fmt.Printf("note: -runs budget reached before the target width; interval is the widest effort\n")
	}
	return nil
}

func runTest(args []string) error {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var d dataFlags
	d.register(fs)
	f := fs.Float64("f", 0.9, "proportion F in (0,1)")
	c := fs.Float64("c", 0.9, "confidence C in (0,1)")
	thr := fs.Float64("threshold", 0, "property threshold v")
	dir := fs.String("direction", "atmost", "property direction: atmost or atleast")
	if err := fs.Parse(args); err != nil {
		return err
	}
	xs, err := d.load()
	if err != nil {
		return err
	}
	direction, err := parseDirection(*dir)
	if err != nil {
		return err
	}
	span := telemetry.T().StartSpan("spa.smc_test", obs.Int("samples", len(xs)),
		obs.F64("f", *f), obs.F64("c", *c), obs.F64("threshold", *thr))
	telemetry.M().Counter(obs.MetricSMCTests).Inc()
	res, err := core.HypothesisTest(xs, *thr, core.Params{F: *f, C: *c, Direction: direction})
	if err != nil {
		span.End(obs.Str("error", err.Error()))
		return err
	}
	span.End(obs.Str("assertion", res.Assertion.String()),
		obs.F64("confidence", res.Confidence), obs.Int("satisfied", res.Satisfied))
	fmt.Printf("property: metric %s %g for ≥%g of executions\n", direction, *thr, *f)
	fmt.Printf("satisfied: %d/%d\n", res.Satisfied, res.Samples)
	fmt.Printf("assertion: %s (C_CP = %.4f, requested C = %g)\n", res.Assertion, res.Confidence, *c)
	if !res.Converged() {
		min, err := smc.MinSamples(*f, *c)
		if err == nil {
			fmt.Printf("not converged: collect more executions (minimum for convergence is %d)\n", min)
		}
	}
	return nil
}

func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	var d dataFlags
	d.register(fs)
	f := fs.Float64("f", 0.5, "proportion F in (0,1)")
	c := fs.Float64("c", 0.9, "confidence C in (0,1)")
	resamples := fs.Int("resamples", 2000, "bootstrap resamples")
	seed := fs.Uint64("seed", 1, "bootstrap seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	xs, err := d.load()
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %-12s %-12s %s\n", "method", "lo", "hi", "width")
	show := func(name string, lo, hi float64, err error) {
		if errors.Is(err, ci.ErrDegenerate) {
			fmt.Printf("%-22s failed to produce a CI (%v)\n", name, err)
			return
		}
		if err != nil {
			fmt.Printf("%-22s error: %v\n", name, err)
			return
		}
		fmt.Printf("%-22s %-12.6g %-12.6g %.6g\n", name, lo, hi, hi-lo)
	}
	spaIV, err := core.ConfidenceInterval(xs, core.Params{F: *f, C: *c})
	show("SPA", spaIV.Lo, spaIV.Hi, err)
	bIV, err := ci.BootstrapBCa(xs, *f, *c, ci.BootstrapOptions{Resamples: *resamples, Seed: *seed})
	show("Bootstrap (BCa)", bIV.Lo, bIV.Hi, err)
	rIV, err := ci.RankCI(xs, *f, *c)
	show("Rank (normal approx)", rIV.Lo, rIV.Hi, err)
	reIV, err := ci.RankCIExact(xs, *f, *c)
	show("Rank (exact)", reIV.Lo, reIV.Hi, err)
	if *f == 0.5 {
		zIV, err := ci.ZScoreCI(xs, *c)
		show("Z-score", zIV.Lo, zIV.Hi, err)
	} else {
		fmt.Printf("%-22s requires F=0.5 (Gaussian mean/median)\n", "Z-score")
	}
	return nil
}

func runProportion(args []string) error {
	fs := flag.NewFlagSet("proportion", flag.ContinueOnError)
	var d dataFlags
	d.register(fs)
	c := fs.Float64("c", 0.9, "confidence C in (0,1)")
	thr := fs.Float64("threshold", 0, "property threshold v")
	dir := fs.String("direction", "atmost", "property direction: atmost or atleast")
	if err := fs.Parse(args); err != nil {
		return err
	}
	xs, err := d.load()
	if err != nil {
		return err
	}
	direction, err := parseDirection(*dir)
	if err != nil {
		return err
	}
	m := 0
	for _, v := range xs {
		sat := v <= *thr
		if direction == core.AtLeast {
			sat = v >= *thr
		}
		if sat {
			m++
		}
	}
	iv, err := smc.ProportionInterval(m, len(xs), *c)
	if err != nil {
		return err
	}
	fmt.Printf("property: metric %s %g"+"\n", direction, *thr)
	fmt.Printf("satisfied: %d/%d (%.3f)"+"\n", m, len(xs), float64(m)/float64(len(xs)))
	fmt.Printf("satisfaction probability CI at C=%g: [%.4f, %.4f]"+"\n", *c, iv.Lo, iv.Hi)
	return nil
}

func runHyper(args []string) error {
	fs := flag.NewFlagSet("hyper", flag.ContinueOnError)
	var d dataFlags
	d.register(fs)
	f := fs.Float64("f", 0.8, "proportion F in (0,1)")
	c := fs.Float64("c", 0.9, "confidence C in (0,1)")
	gap := fs.Float64("gap", 0, "maximum absolute gap between tuple members")
	gapPct := fs.Float64("gap-pct", 0, "gap as a fraction of the sample median (overrides -gap)")
	arity := fs.Int("arity", 2, "tuple size k (disjoint consecutive tuples)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	xs, err := d.load()
	if err != nil {
		return err
	}
	eps := *gap
	if *gapPct > 0 {
		med, err := stats.Quantile(xs, 0.5)
		if err != nil {
			return err
		}
		eps = *gapPct * med
	}
	if eps <= 0 {
		return errors.New("provide a positive -gap or -gap-pct")
	}
	res, err := smc.CheckHyperFixed(xs, *arity, smc.MaxPairwiseGapWithin(eps), *f, *c)
	if err != nil {
		return err
	}
	fmt.Printf("hyperproperty: all %d-tuples of executions within %.6g of each other\n", *arity, eps)
	fmt.Printf("satisfied tuples: %d/%d\n", res.Satisfied, res.Samples)
	fmt.Printf("assertion for ≥%g of tuples: %s (C_CP = %.4f)\n", *f, res.Assertion, res.Confidence)
	return nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	g5 := fs.String("gem5", "", "glob of gem5 stats.txt files")
	jsonPath := fs.String("json", "", "population JSON produced by simrun")
	find := fs.String("find", "", "only list names containing this substring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var names []string
	switch {
	case *g5 != "":
		pop, err := gem5.Population(*g5)
		if err != nil {
			return err
		}
		for n := range pop.Metrics {
			names = append(names, n)
		}
	case *jsonPath != "":
		f, err := os.Open(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		pop, err := population.Load(f)
		if err != nil {
			return err
		}
		for n := range pop.Metrics {
			names = append(names, n)
		}
	default:
		return errors.New("provide -gem5 or -json")
	}
	sort.Strings(names)
	for _, n := range names {
		if *find == "" || strings.Contains(n, *find) {
			fmt.Println(n)
		}
	}
	return nil
}

func runMinSamples(args []string) error {
	fs := flag.NewFlagSet("minsamples", flag.ContinueOnError)
	f := fs.Float64("f", 0.9, "proportion F in (0,1)")
	c := fs.Float64("c", 0.9, "confidence C in (0,1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	np, err := smc.MinSamplesPositive(*f, *c)
	if err != nil {
		return err
	}
	nn, err := smc.MinSamplesNegative(*f, *c)
	if err != nil {
		return err
	}
	nh, err := smc.MinSamples(*f, *c)
	if err != nil {
		return err
	}
	nci, err := core.CIMinSamples(core.Params{F: *f, C: *c})
	if err != nil {
		return err
	}
	fmt.Printf("F=%g C=%g\n", *f, *c)
	fmt.Printf("fastest positive convergence (eq. 6): %d samples\n", np)
	fmt.Printf("fastest negative convergence (eq. 7): %d samples\n", nn)
	fmt.Printf("hypothesis-test minimum (eq. 8):      %d samples\n", nh)
	fmt.Printf("SPA confidence-interval minimum:      %d samples\n", nci)
	return nil
}
