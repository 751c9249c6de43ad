package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorThroughput/ferret-8         	     420	   5340304 ns/op	    267268 sim-cycles	 2935639 B/op	   20285 allocs/op
BenchmarkPopulationGeneration-8               	      64	  36680329 ns/op	32434650 B/op	  115206 allocs/op
PASS
ok  	repro	10.560s
`

const sampleBaseline = `BenchmarkSimulatorThroughput/ferret-8  400  10680608 ns/op
BenchmarkPopulationGeneration-8        32   36680329 ns/op
BenchmarkOnlyInBaseline-8              10    1000000 ns/op
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "repro" {
		t.Fatalf("header = %+v", rep)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "SimulatorThroughput/ferret" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be stripped)", b.Name)
	}
	if b.Iterations != 420 || b.NsPerOp != 5340304 {
		t.Errorf("ferret = %+v", b)
	}
	want := map[string]float64{"sim-cycles": 267268, "B/op": 2935639, "allocs/op": 20285}
	for unit, v := range want {
		if b.Metrics[unit] != v {
			t.Errorf("metric %s = %g, want %g", unit, b.Metrics[unit], v)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkBroken-8",
		"BenchmarkBroken-8 notanint 5 ns/op",
		"BenchmarkBroken-8 10 zzz ns/op",
	} {
		if _, err := Parse(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("no error for %q", line)
		}
	}
}

func TestBaselineImprovement(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Parse(strings.NewReader(sampleBaseline))
	if err != nil {
		t.Fatal(err)
	}
	applyBaseline(rep, base)
	ferret := rep.Benchmarks[0]
	if ferret.BaselineNsPerOp != 10680608 {
		t.Fatalf("baseline = %g", ferret.BaselineNsPerOp)
	}
	if ferret.ImprovementPct != 50.0 {
		t.Fatalf("improvement = %g, want 50.0", ferret.ImprovementPct)
	}
	// Identical ns/op → 0% improvement, still annotated.
	popgen := rep.Benchmarks[1]
	if popgen.BaselineNsPerOp != 36680329 || popgen.ImprovementPct != 0 {
		t.Fatalf("popgen = %+v", popgen)
	}
}

// repeated is five -count repeats of one benchmark, shuffled, with a
// metric; the medians are 300 ns/op and 30 allocs/op, the mean 400 ns/op.
const repeated = `BenchmarkSimulatorThroughput/suite-cold-shape-2  1  1000 ns/op  50 allocs/op
BenchmarkSimulatorThroughput/suite-cold-shape-2  1  100 ns/op  10 allocs/op
BenchmarkSimulatorThroughput/suite-cold-shape-2  1  300 ns/op  30 allocs/op
BenchmarkOther-2  7  42 ns/op
BenchmarkSimulatorThroughput/suite-cold-shape-2  1  400 ns/op  40 allocs/op
BenchmarkSimulatorThroughput/suite-cold-shape-2  1  200 ns/op  20 allocs/op
`

func TestParseFoldsRepeats(t *testing.T) {
	rep, err := Parse(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d records, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[0]
	if b.Name != "SimulatorThroughput/suite-cold-shape" || b.Runs != 5 || b.NsPerOp != 300 ||
		b.NsPerOpQ1 != 200 || b.NsPerOpQ3 != 400 || b.Metrics["allocs/op"] != 30 || b.Iterations != 1 {
		t.Errorf("folded record = %+v, want 5 runs, median 300 ns/op in [200, 400], 30 allocs/op", b)
	}
	// A name seen once renders as before: no repeat count, no quartiles.
	if o := rep.Benchmarks[1]; o.Name != "Other" || o.Runs != 0 || o.NsPerOpQ1 != 0 || o.NsPerOp != 42 {
		t.Errorf("single record = %+v", o)
	}
}

func TestBaselineComparesMedians(t *testing.T) {
	base, err := Parse(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	// Against the last baseline line (200) or the mean (400) the answer
	// would differ; against the median (300), 150 is a 50% improvement.
	rep, err := Parse(strings.NewReader(strings.Repeat("BenchmarkSimulatorThroughput/suite-cold-shape-2  1  150 ns/op\n", 3)))
	if err != nil {
		t.Fatal(err)
	}
	applyBaseline(rep, base)
	b := rep.Benchmarks[0]
	if b.Runs != 3 || b.BaselineNsPerOp != 300 || b.ImprovementPct != 50 {
		t.Errorf("record = %+v, want 3 runs against the 300 ns/op baseline median, +50%%", b)
	}
}

// TestBaselineKeepsMetrics: a -baseline record carries the folded median
// of every baseline metric beside its ns/op, and a record with no baseline
// of its name renders as before.
func TestBaselineKeepsMetrics(t *testing.T) {
	base, err := Parse(strings.NewReader(repeated + `BenchmarkSimulatorThroughput/suite-cold-shape-2  1  250 ns/op  35 allocs/op  900 B/op
`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Parse(strings.NewReader("BenchmarkSimulatorThroughput/suite-cold-shape-2  1  150 ns/op  5 allocs/op  100 B/op\n" +
		"BenchmarkOnlyNew-2  3  10 ns/op  7 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	applyBaseline(rep, base)
	// Six baseline lines: allocs 10..50 plus 35 fold to 30 (inverted-CDF
	// median); B/op appears once.
	want := map[string]float64{"allocs/op": 30, "B/op": 900}
	if b := rep.Benchmarks[0]; !reflect.DeepEqual(b.BaselineMetrics, want) || b.BaselineNsPerOp != 250 {
		t.Errorf("record = %+v, want baseline metrics %v at 250 ns/op", b, want)
	}
	data, err := json.Marshal(rep.Benchmarks[1])
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data); got != `{"name":"OnlyNew","iterations":3,"ns_per_op":10,"metrics":{"allocs/op":7}}` {
		t.Errorf("record without a baseline renders as %s", got)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	baseline := filepath.Join(dir, "baseline.txt")
	out := filepath.Join(dir, "BENCH.json")
	if err := os.WriteFile(in, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, []byte(sampleBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-in", in, "-baseline", baseline, "-out", out}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].ImprovementPct != 50.0 {
		t.Fatalf("report = %+v", rep)
	}
	// Empty input is an error, not an empty artifact.
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", empty}, nil, nil); err == nil {
		t.Fatal("no error for empty input")
	}
}
