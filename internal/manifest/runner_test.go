package manifest

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// tinyManifest is fast enough for unit tests.
func tinyManifest() *Manifest {
	return &Manifest{
		Name:  "tiny",
		Seed:  7,
		Scale: 0.05,
		Runs:  32,
		Entries: []Entry{
			{Benchmark: "swaptions"},
			{Benchmark: "swaptions", Variant: "l2half", Runs: 30},
		},
		Analyses: []Analysis{
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9},
			{Metric: sim.MetricIPC, F: 0.9, C: 0.9, Direction: "atleast"},
			{Metric: "no_such_metric", F: 0.5, C: 0.9},
		},
	}
}

func TestRunnerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	r := &Runner{OutDir: dir, Obs: &obs.Observer{Progress: obs.NewProgress(&log, "runs", 0)}}
	rep, err := r.Run(tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 6 { // 2 entries × 3 analyses
		t.Fatalf("got %d results", len(rep.Results))
	}
	okCount, errCount := 0, 0
	for _, res := range rep.Results {
		if res.Err != "" {
			errCount++
			continue
		}
		okCount++
		if !res.Interval.IsValid() {
			t.Errorf("invalid interval in %+v", res)
		}
		if res.Samples == 0 {
			t.Error("missing sample count")
		}
	}
	if okCount != 4 || errCount != 2 {
		t.Errorf("ok=%d err=%d, want 4/2 (the bogus metric fails per entry)", okCount, errCount)
	}
	// Population files and the report exist.
	for _, name := range []string{"tiny-swaptions-default.json", "tiny-swaptions-l2half.json", "tiny-report.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing output %s: %v", name, err)
		}
	}
	// The report file parses back.
	f, err := os.Open(filepath.Join(dir, "tiny-report.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back Report
	if err := json.NewDecoder(f).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "tiny" || len(back.Results) != 6 {
		t.Errorf("report round trip wrong: %+v", back)
	}
}

// TestRunnerTelemetry is the observability acceptance check: with tracing
// and metrics enabled, a campaign emits one "sim.run" span per simulation
// and the runs-completed counter equals the manifest's total run count —
// and the populations are bit-identical to an unobserved campaign.
func TestRunnerTelemetry(t *testing.T) {
	m := tinyManifest()
	wantRuns := 0
	for _, e := range m.Entries {
		runs := e.Runs
		if runs <= 0 {
			runs = m.Runs
		}
		wantRuns += runs
	}

	var trace, progress bytes.Buffer
	o := &obs.Observer{
		Tracer:   obs.NewTracer(&trace),
		Metrics:  obs.NewRegistry(),
		Progress: obs.NewProgress(&progress, "runs", 0),
	}
	dir := t.TempDir()
	r := &Runner{OutDir: dir, Obs: o}
	rep, err := r.Run(m)
	if err != nil {
		t.Fatal(err)
	}

	if got := o.Metrics.Counter(obs.MetricRunsCompleted).Value(); got != int64(wantRuns) {
		t.Errorf("runs_completed %d, want %d", got, wantRuns)
	}
	if got := o.Metrics.Counter(obs.MetricRunsFailed).Value(); got != 0 {
		t.Errorf("runs_failed %d, want 0", got)
	}
	if got := strings.Count(trace.String(), `"name":"sim.run"`); got != wantRuns {
		t.Errorf("trace has %d sim.run spans, want %d", got, wantRuns)
	}
	if got := strings.Count(trace.String(), `"name":"campaign.analysis"`); got != len(rep.Results) {
		t.Errorf("trace has %d analysis spans, want %d", got, len(rep.Results))
	}
	if done, total := o.Progress.Counts(); done != int64(wantRuns) || total != int64(wantRuns) {
		t.Errorf("progress %d/%d, want %d/%d", done, total, wantRuns, wantRuns)
	}
	// CI metrics: 4 analyses succeed, 2 fail (bogus metric per entry).
	if ok, bad := o.Metrics.Counter(obs.MetricCIBuilt).Value(), o.Metrics.Counter(obs.MetricCIFailed).Value(); ok != 4 || bad != 2 {
		t.Errorf("ci built/failed %d/%d, want 4/2", ok, bad)
	}

	// Determinism: an unobserved campaign yields bit-identical populations.
	plainDir := t.TempDir()
	plain := &Runner{OutDir: plainDir}
	if _, err := plain.Run(m); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tiny-swaptions-default.json", "tiny-swaptions-l2half.json"} {
		a, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(plainDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("telemetry perturbed population %s", name)
		}
	}
}

func TestRunnerResume(t *testing.T) {
	dir := t.TempDir()
	r := &Runner{OutDir: dir}
	m := tinyManifest()
	if _, err := r.Run(m); err != nil {
		t.Fatal(err)
	}
	// Second run must reuse both populations.
	rep, err := r.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reused) != 2 {
		t.Errorf("resume reused %d populations, want 2", len(rep.Reused))
	}
}

// TestRunnerResumeEditedManifest: a manifest edited between runs into
// the same output directory must not resume from the old recipe's
// population files.
func TestRunnerResumeEditedManifest(t *testing.T) {
	dir := t.TempDir()
	m := tinyManifest()
	m.Entries = m.Entries[:1]
	if _, err := (&Runner{OutDir: dir}).Run(m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "tiny-swaptions-default.json")
	for name, edit := range map[string]func(*Manifest){
		"runs": func(m *Manifest) { m.Runs = 40 },
		"seed": func(m *Manifest) { m.Seed = 8 },
	} {
		edited := tinyManifest()
		edited.Entries = edited.Entries[:1]
		edit(edited)
		_, err := (&Runner{OutDir: dir}).Run(edited)
		var stale *StaleOutputError
		if !errors.As(err, &stale) || stale.Path != path {
			t.Errorf("edited %s: resume returned %v, want a StaleOutputError naming %s", name, err, path)
		}
	}
}

func TestRunnerResumeCorruptFile(t *testing.T) {
	dir := t.TempDir()
	m := tinyManifest()
	m.Entries = m.Entries[:1]
	bad := filepath.Join(dir, "tiny-swaptions-default.json")
	if err := os.WriteFile(bad, []byte("{corrupt"), 0o600); err != nil {
		t.Fatal(err)
	}
	r := &Runner{OutDir: dir}
	_, err := r.Run(m)
	if err == nil {
		t.Fatal("corrupt population file should fail loudly, not silently regenerate")
	}
	if !strings.Contains(err.Error(), "resuming from") || !strings.Contains(err.Error(), bad) {
		t.Errorf("error should say it was resuming and name the file: %v", err)
	}
}

// TestRunnerResumeTruncatedFile covers the partial-write shape of
// corruption (a crash mid-write under non-atomic saving): a valid JSON
// prefix cut off mid-stream must also fail the resume loudly.
func TestRunnerResumeTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	m := tinyManifest()
	m.Entries = m.Entries[:1]
	r := &Runner{OutDir: dir}
	if _, err := r.Run(m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "tiny-swaptions-default.json")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(m)
	if err == nil {
		t.Fatal("truncated population file should fail the resume")
	}
	if !strings.Contains(err.Error(), "resuming from") {
		t.Errorf("error should mention resuming: %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("ok"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "ok" {
		t.Fatalf("atomic write produced %q, %v", got, err)
	}

	// A failed write must leave neither the target nor temp litter behind.
	failPath := filepath.Join(dir, "fail.json")
	boom := errors.New("disk full")
	if err := WriteFileAtomic(failPath, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("want the write error back, got %v", err)
	}
	if _, err := os.Stat(failPath); !errors.Is(err, os.ErrNotExist) {
		t.Error("failed write left the target file behind")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "out.json" {
			t.Errorf("leftover file %s after failed atomic write", e.Name())
		}
	}
}

func TestRunnerValidationAndSetupErrors(t *testing.T) {
	r := &Runner{OutDir: t.TempDir()}
	bad := tinyManifest()
	bad.Name = ""
	if _, err := r.Run(bad); err == nil {
		t.Error("invalid manifest should error")
	}
	r2 := &Runner{}
	if _, err := r2.Run(tinyManifest()); err == nil {
		t.Error("missing out dir should error")
	}
}

func TestReportRender(t *testing.T) {
	rep := &Report{
		Name: "demo",
		Results: []AnalysisResult{
			{Entry: "a-default", Metric: "m", F: 0.5, C: 0.9, Direction: "atmost", Samples: 10},
			{Entry: "a-default", Metric: "x", F: 0.5, C: 0.9, Direction: "atmost", Err: "boom"},
		},
		Reused: []string{"a-default"},
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, frag := range []string{"campaign demo", "1 populations reused", "error: boom"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}
