// Command benchreport converts `go test -bench` text output into the
// repository's BENCH_N.json perf-trajectory format: one record per
// benchmark with ns/op, every ReportMetric value (sim-cycles, B/op,
// allocs/op, ...), and — when a baseline run is supplied — the relative
// ns/op improvement, so a regression shows up as a negative number in the
// committed artifact.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . > bench.txt
//	benchreport -in bench.txt -baseline old-bench.txt -out BENCH_3.json
//
// -in - reads the benchmark text from stdin instead.
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
	// Metrics holds every further "value unit" pair the benchmark emitted:
	// testing's B/op and allocs/op plus custom ReportMetric units.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// BaselineNsPerOp and ImprovementPct are filled when -baseline has a
	// benchmark of the same name. Positive improvement = faster.
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	ImprovementPct  float64 `json:"improvement_pct,omitempty"`
}

// Report is the BENCH_N.json document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	in := fs.String("in", "-", "benchmark text ('go test -bench' output); - for stdin")
	baseline := fs.String("baseline", "", "optional baseline benchmark text to compute ns/op improvements against")
	out := fs.String("out", "", "output JSON file (default stdout)")
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
	if *baseline != "" {
		base, err := parseSource(*baseline, nil)
		if err != nil {
			return err
		}
		applyBaseline(rep, base)
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
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
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
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
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

// applyBaseline annotates rep's benchmarks with the baseline ns/op and the
// relative improvement of any same-named baseline benchmark.
func applyBaseline(rep, base *Report) {
	old := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[b.Name] = b.NsPerOp
	}
	for i := range rep.Benchmarks {
		prev, ok := old[rep.Benchmarks[i].Name]
		if !ok || prev == 0 || rep.Benchmarks[i].NsPerOp == 0 {
			continue
		}
		rep.Benchmarks[i].BaselineNsPerOp = prev
		pct := (prev - rep.Benchmarks[i].NsPerOp) / prev * 100
		// Round to 0.1% so the committed artifact does not churn on noise
		// digits.
		rep.Benchmarks[i].ImprovementPct = roundTenth(pct)
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
