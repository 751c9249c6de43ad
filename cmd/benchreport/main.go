// Command benchreport converts `go test -bench` text output into the
// repository's BENCH_N.json perf-trajectory format: one record per
// benchmark with ns/op, every ReportMetric value (sim-cycles, B/op,
// allocs/op, ...), and — when a baseline run is supplied — the baseline's
// ns/op and metrics with the relative ns/op improvement, so a regression
// shows up as a negative number in the committed artifact. Under
// `go test -count N` the N lines of a benchmark fold into one record of
// medians with the repeat count and the ns/op quartiles, and a repeated
// baseline is compared median against median.
//
// Usage:
//
//	go test -bench=. -benchmem -count 5 -run='^$' . > bench.txt
//	benchreport -in bench.txt -baseline old-bench.txt -out BENCH_3.json
//
// -in - reads the benchmark text from stdin instead.
//
// With -paired, -in and -baseline hold the same benchmarks run in
// alternating order, and instead of JSON each benchmark's i-th lines on
// the two sides form a pair: for ns/op and every metric, benchreport
// prints the median change/baseline ratio, its SPA interval (F = 0.5,
// C = 0.9) and a verdict, lower, higher or unresolved:
//
//	benchreport -paired -in new.txt -baseline base.txt
//
// A second mode renders convergence traces: point -telemetry at the
// <name>-report.json of a campaign with adaptive (target_width)
// analyses, and each adaptive result's runs-vs-width trajectory is
// printed as a table with its sampling design and converged flag:
//
//	benchreport -telemetry results/nightly-report.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Runs, NsPerOpQ1 and NsPerOpQ3 are set when the input repeats the
	// benchmark: Runs lines were folded, Iterations, NsPerOp and every
	// metric are their medians, and the quartiles give the ns/op spread.
	Runs      int     `json:"runs,omitempty"`
	NsPerOpQ1 float64 `json:"ns_per_op_q1,omitempty"`
	NsPerOpQ3 float64 `json:"ns_per_op_q3,omitempty"`
	// Metrics holds every further "value unit" pair the benchmark emitted:
	// testing's B/op and allocs/op plus custom ReportMetric units.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// BaselineNsPerOp, BaselineMetrics and ImprovementPct are filled when
	// -baseline has a benchmark of the same name: the baseline's (folded)
	// ns/op and every metric it reported, such as B/op and allocs/op.
	// Positive improvement = faster.
	BaselineNsPerOp float64            `json:"baseline_ns_per_op,omitempty"`
	BaselineMetrics map[string]float64 `json:"baseline_metrics,omitempty"`
	ImprovementPct  float64            `json:"improvement_pct,omitempty"`
}

// Report is the BENCH_N.json document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// lines are the benchmark lines before folding, in input order.
	lines []Benchmark
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	in := fs.String("in", "-", "benchmark text ('go test -bench' output); - for stdin")
	baseline := fs.String("baseline", "", "optional baseline benchmark text to compute ns/op improvements against")
	out := fs.String("out", "", "output JSON file (default stdout)")
	paired := fs.Bool("paired", false, "with -baseline, judge alternating runs pair by pair: print each benchmark's median change/baseline ratio, its SPA interval and a verdict instead of JSON")
	telemetry := fs.String("telemetry", "", "render a campaign report's adaptive analyses (<name>-report.json) as runs-vs-width tables instead of parsing benchmarks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *telemetry != "" {
		return renderTelemetry(*telemetry, stdout)
	}
	rep, err := parseSource(*in, stdin)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark results in %s", *in)
	}
	if *paired && *baseline == "" {
		return fmt.Errorf("-paired needs -baseline")
	}
	var base *Report
	if *baseline != "" {
		if base, err = parseSource(*baseline, nil); err != nil {
			return err
		}
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *paired {
		return renderPaired(rep, base, w)
	}
	if base != nil {
		applyBaseline(rep, base)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rep)
}

func parseSource(path string, stdin io.Reader) (*Report, error) {
	if path == "-" {
		if stdin == nil {
			return nil, fmt.Errorf("stdin not available")
		}
		return Parse(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// gomaxprocsSuffix is the trailing -N testing appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads `go test -bench` text output. Lines it does not recognize
// (PASS, ok, test logs) are skipped, so piping the full test output works.
// The lines of one benchmark name fold into one record, in the order the
// names first appear.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	var lines []Benchmark
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			lines = append(lines, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.Benchmarks, rep.lines = fold(lines), lines
	return rep, nil
}

// fold merges repeated lines of one benchmark into a record of medians
// (stats.Summarize's inverted-CDF quantiles, so each is a measured value)
// with the repeat count and the ns/op quartiles. A name seen once keeps
// its line as is.
func fold(lines []Benchmark) []Benchmark {
	var names []string
	reps := make(map[string][]Benchmark)
	for _, b := range lines {
		if _, ok := reps[b.Name]; !ok {
			names = append(names, b.Name)
		}
		reps[b.Name] = append(reps[b.Name], b)
	}
	median := func(xs []float64) float64 {
		m, _ := stats.Median(xs) // never empty
		return m
	}
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		rs := reps[name]
		if len(rs) == 1 {
			out = append(out, rs[0])
			continue
		}
		ns := make([]float64, len(rs))
		iters := make([]float64, len(rs))
		units := make(map[string][]float64)
		for i, b := range rs {
			ns[i], iters[i] = b.NsPerOp, float64(b.Iterations)
			for unit, v := range b.Metrics {
				units[unit] = append(units[unit], v)
			}
		}
		s, _ := stats.Summarize(ns) // never empty
		b := Benchmark{Name: name, Iterations: int64(median(iters)), NsPerOp: s.Median,
			Runs: len(rs), NsPerOpQ1: s.Q1, NsPerOpQ3: s.Q3}
		if len(units) > 0 {
			b.Metrics = make(map[string]float64, len(units))
		}
		for unit, vs := range units {
			b.Metrics[unit] = median(vs)
		}
		out = append(out, b)
	}
	return out
}

// parseLine decodes one result line:
//
//	BenchmarkName/sub-8  420  5340304 ns/op  267268 sim-cycles  20285 allocs/op
func parseLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line %q", line)
	}
	b := Benchmark{Name: gomaxprocsSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")}
	var err error
	b.Iterations, err = strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("iterations in %q: %v", line, err)
	}
	// The rest are "value unit" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("value %q in %q: %v", fields[i], line, err)
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = make(map[string]float64)
		}
		b.Metrics[unit] = v
	}
	return b, nil
}

// applyBaseline annotates rep's benchmarks with the metrics, the ns/op and
// the relative improvement of any same-named baseline benchmark. Parse
// folds both reports, so repeated runs compare median against median.
func applyBaseline(rep, base *Report) {
	old := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[b.Name] = b
	}
	for i := range rep.Benchmarks {
		b := &rep.Benchmarks[i]
		prev, ok := old[b.Name]
		if !ok {
			continue
		}
		b.BaselineMetrics = prev.Metrics
		if prev.NsPerOp == 0 || b.NsPerOp == 0 {
			continue
		}
		b.BaselineNsPerOp = prev.NsPerOp
		pct := (prev.NsPerOp - b.NsPerOp) / prev.NsPerOp * 100
		// Round to 0.1% so the committed artifact does not churn on noise
		// digits.
		b.ImprovementPct = roundTenth(pct)
	}
}

func roundTenth(v float64) float64 {
	scaled := v * 10
	if scaled >= 0 {
		scaled += 0.5
	} else {
		scaled -= 0.5
	}
	return float64(int64(scaled)) / 10
}
