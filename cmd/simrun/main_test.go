package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/population"
)

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, b := range []string{"ferret", "canneal", "swaptions"} {
		if !strings.Contains(out, b) {
			t.Errorf("list output missing %q", b)
		}
	}
}

func TestCampaignSummaryAndJSON(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "pop.json")
	var buf bytes.Buffer
	err := run([]string{"-bench", "swaptions", "-runs", "8", "-scale", "0.05", "-out", out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "runtime_s") {
		t.Error("summary missing runtime metric")
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pop, err := population.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if pop.Runs != 8 || pop.Benchmark != "swaptions" {
		t.Errorf("population header %+v", pop)
	}
	vs, err := pop.Metric("l1d_mpki")
	if err != nil || len(vs) != 8 {
		t.Errorf("metric vector wrong: %v, %v", vs, err)
	}
}

func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-version"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "simrun ") {
		t.Errorf("version output wrong:\n%s", buf.String())
	}
}

func TestTelemetryFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	metricsPath := filepath.Join(dir, "m.json")
	var buf bytes.Buffer
	err := run([]string{
		"-bench", "swaptions", "-runs", "3", "-scale", "0.05",
		"-trace", tracePath, "-metrics", metricsPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(trace), `"name":"sim.run"`); got != 3 {
		t.Errorf("trace has %d sim.run spans, want 3:\n%s", got, trace)
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), `"spa_runs_completed_total": 3`) {
		t.Errorf("JSON metrics dump missing counter:\n%s", metrics)
	}
}

func TestVariants(t *testing.T) {
	for _, v := range []string{"default", "hardware", "l2half", "l2double"} {
		var buf bytes.Buffer
		if err := run([]string{"-bench", "swaptions", "-runs", "2", "-scale", "0.05", "-variant", v}, &buf); err != nil {
			t.Errorf("variant %s failed: %v", v, err)
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-variant", "warp-drive"}, &buf); err == nil {
		t.Error("unknown variant should error")
	}
}

func TestBadBenchAndFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bench", "nope", "-runs", "2", "-scale", "0.05"}, &buf); err == nil {
		t.Error("unknown benchmark should error")
	}
	if err := run([]string{"-runs", "0"}, &buf); err == nil {
		t.Error("zero runs should error")
	}
	// A count too large to allocate is refused, not a makeslice panic.
	err := run([]string{"-bench", "swaptions", "-runs", "4611686018427387904", "-scale", "0.01"}, &buf)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(population.MaxRuns)) {
		t.Errorf("-runs 2^62: err = %v, want one naming the bound %d", err, population.MaxRuns)
	}
	// A scale that is not finite or over workload.MaxScale is refused, not
	// a panic hashing the cache key or a huge program build.
	for _, scale := range []string{"NaN", "+Inf", "5"} {
		if err := run([]string{"-bench", "swaptions", "-runs", "2", "-scale", scale}, &buf); err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("-scale %s: err = %v, want a scale error", scale, err)
		}
	}
	if err := run([]string{"-notaflag"}, &buf); err == nil {
		t.Error("bad flag should error")
	}
	if err := run([]string{"-bench", "swaptions", "-runs", "2", "-scale", "0.05",
		"-out", filepath.Join(t.TempDir(), "nodir", "x.json")}, &buf); err == nil {
		t.Error("unwritable output path should error")
	}
}

func TestConfigOverrides(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-bench", "swaptions", "-runs", "2", "-scale", "0.05",
		"-l2kb", "512", "-mshrs", "2", "-protocol", "msi", "-replacement", "fifo", "-bp", "gshare"}, &buf)
	if err != nil {
		t.Fatalf("overrides failed: %v", err)
	}
	if err := run([]string{"-bench", "swaptions", "-runs", "2", "-scale", "0.05", "-protocol", "moesi"}, &buf); err == nil {
		t.Error("bad protocol override should surface the config error")
	}
}
