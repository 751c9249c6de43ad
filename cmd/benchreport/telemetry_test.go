package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/manifest"
)

// rounds builds an adaptive result's trajectory toward target.
func rounds(entry string, target float64, samples []int, widths []float64) []manifest.ConvergenceRound {
	var rs []manifest.ConvergenceRound
	for i := range samples {
		rs = append(rs, manifest.ConvergenceRound{Entry: entry, Metric: "runtime_s",
			Round: i + 1, Samples: samples[i], Width: widths[i], Target: target})
	}
	return rs
}

// writeReport saves rep as a campaign report file and returns its path.
func writeReport(t *testing.T, rep manifest.Report) string {
	t.Helper()
	body, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), rep.Name+"-report.json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRenderTelemetry: a plain and a stratified analysis of the same
// entry and metric render as two tables, each with its own design,
// round count and converged flag.
func TestRenderTelemetry(t *testing.T) {
	const entry = "swaptions-default"
	path := writeReport(t, manifest.Report{Name: "x", Results: []manifest.AnalysisResult{
		{Entry: entry, Metric: "runtime_s", F: 0.5, C: 0.9, Samples: 16},
		{Entry: entry, Metric: "runtime_s", F: 0.5, C: 0.9, Samples: 30, TargetWidth: 0.005, Converged: true,
			Rounds: rounds(entry, 0.005, []int{10, 20, 30}, []float64{0.02, 0.008, 0.004})},
		{Entry: entry, Metric: "runtime_s", F: 0.5, C: 0.9, Samples: 40, TargetWidth: 0.005, Sampling: "stratified",
			Rounds: rounds(entry, 0.005, []int{10, 40}, []float64{0.03, 0.006})},
	}})
	var out bytes.Buffer
	if err := run([]string{"-telemetry", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, frag := range []string{
		"2 adaptive analyses",
		"swaptions-default runtime_s F=0.5 C=0.9 plain (target width 0.005, 3 rounds, converged)",
		"swaptions-default runtime_s F=0.5 C=0.9 stratified (target width 0.005, 2 rounds, hit sample budget)",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("output missing %q:\n%s", frag, got)
		}
	}
	// Each trajectory renders one line per round with the runs column
	// intact.
	for _, runs := range []string{" 10 ", " 20 ", " 30 ", " 40 "} {
		if !strings.Contains(got, runs) {
			t.Errorf("output missing runs column %q:\n%s", runs, got)
		}
	}
}

func TestRenderTelemetryRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad-report.json")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-telemetry", bad}, nil, &bytes.Buffer{}); err == nil {
		t.Error("malformed report must error")
	}
	fixed := writeReport(t, manifest.Report{Name: "fixed", Results: []manifest.AnalysisResult{
		{Entry: "swaptions-default", Metric: "runtime_s", F: 0.5, C: 0.9, Samples: 16},
	}})
	if err := run([]string{"-telemetry", fixed}, nil, &bytes.Buffer{}); err == nil {
		t.Error("a report with no adaptive analyses must error")
	}
}
