package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/manifest"
	"repro/internal/population"
	"repro/internal/sim"
	"repro/internal/stats"
)

func writeValues(t *testing.T, lines string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "values.txt")
	if err := os.WriteFile(path, []byte(lines), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func manyValues(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("# comment line\n\n")
	for i := 0; i < 40; i++ {
		sb.WriteString(strings.TrimSpace(strings.Repeat(" ", i%2)+"1.") + string(rune('0'+i%10)) + "\n")
	}
	return writeValues(t, sb.String())
}

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args should error")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand should error")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help should succeed: %v", err)
	}
}

func TestMinSamplesSubcommand(t *testing.T) {
	if err := run([]string{"minsamples", "-f", "0.9", "-c", "0.9"}); err != nil {
		t.Errorf("minsamples failed: %v", err)
	}
	if err := run([]string{"minsamples", "-f", "1.5"}); err == nil {
		t.Error("bad F should error")
	}
}

func TestCISubcommand(t *testing.T) {
	path := manyValues(t)
	if err := run([]string{"ci", "-input", path, "-f", "0.5", "-c", "0.9"}); err != nil {
		t.Errorf("ci failed: %v", err)
	}
	if err := run([]string{"ci", "-input", path, "-f", "0.5", "-c", "0.9", "-sweep"}); err != nil {
		t.Errorf("ci -sweep failed: %v", err)
	}
	if err := run([]string{"ci", "-input", path, "-direction", "atleast", "-f", "0.6"}); err != nil {
		t.Errorf("ci atleast failed: %v", err)
	}
	if err := run([]string{"ci", "-input", path, "-direction", "sideways"}); err == nil {
		t.Error("bad direction should error")
	}
	if err := run([]string{"ci"}); err == nil {
		t.Error("missing input should error")
	}
	if err := run([]string{"ci", "-input", filepath.Join(t.TempDir(), "missing.txt")}); err == nil {
		t.Error("missing file should error")
	}
}

func TestCIInsufficientSamplesSurfaces(t *testing.T) {
	path := writeValues(t, "1\n2\n3\n")
	if err := run([]string{"ci", "-input", path, "-f", "0.9", "-c", "0.9"}); err == nil {
		t.Error("3 samples at F=C=0.9 should report insufficient samples")
	}
}

func TestTestSubcommand(t *testing.T) {
	path := manyValues(t)
	if err := run([]string{"test", "-input", path, "-threshold", "1.5", "-f", "0.5", "-c", "0.9"}); err != nil {
		t.Errorf("test failed: %v", err)
	}
	if err := run([]string{"test", "-input", path, "-threshold", "1.5", "-direction", "atleast"}); err != nil {
		t.Errorf("test atleast failed: %v", err)
	}
}

func TestCompareSubcommand(t *testing.T) {
	path := manyValues(t)
	if err := run([]string{"compare", "-input", path, "-f", "0.5"}); err != nil {
		t.Errorf("compare failed: %v", err)
	}
	// F≠0.5 skips the Z-score row but still succeeds.
	if err := run([]string{"compare", "-input", path, "-f", "0.8"}); err != nil {
		t.Errorf("compare at F=0.8 failed: %v", err)
	}
}

func TestJSONInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pop.json")
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = 5 + float64(i)*0.01
	}
	pop := population.FromValues("bench", "m", vals)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run([]string{"ci", "-json", path, "-metric", "m", "-f", "0.5"}); err != nil {
		t.Errorf("json ci failed: %v", err)
	}
	if err := run([]string{"ci", "-json", path, "-metric", "missing"}); err == nil {
		t.Error("missing metric should error")
	}
	if err := run([]string{"ci", "-json", filepath.Join(dir, "nope.json")}); err == nil {
		t.Error("missing json should error")
	}
}

func TestBadInputValues(t *testing.T) {
	path := writeValues(t, "1.0\nnot-a-number\n")
	if err := run([]string{"ci", "-input", path}); err == nil {
		t.Error("garbage line should error")
	}
	empty := writeValues(t, "# only a comment\n")
	if err := run([]string{"ci", "-input", empty}); err == nil {
		t.Error("empty input should error")
	}
}

// TestCIRefusesNonFiniteValues: the values 1–20 plus NaN lines used to
// print [5, 14] over 22 samples (NaN sorts first and shifts every rank);
// any NaN or ±Inf line is now refused by name.
func TestCIRefusesNonFiniteValues(t *testing.T) {
	var clean strings.Builder
	for v := 1; v <= 20; v++ {
		fmt.Fprintf(&clean, "%d\n", v)
	}
	for _, bad := range []string{"NaN", "nan", "+Inf", "-Inf", "Infinity", "-inf"} {
		path := writeValues(t, clean.String()[:8]+bad+"\n"+clean.String()[8:])
		for _, sub := range []string{"ci", "compare"} {
			err := run([]string{sub, "-input", path, "-f", "0.5", "-c", "0.9"})
			if !errors.Is(err, stats.ErrNonFinite) || !strings.Contains(err.Error(), "line 5:") {
				t.Errorf("%s with a %s line: err = %v, want a non-finite error naming line 5", sub, bad, err)
			}
		}
	}
	path := writeValues(t, clean.String())
	if err := run([]string{"ci", "-input", path, "-f", "0.5", "-c", "0.9"}); err != nil {
		t.Fatalf("the 20 finite values: %v", err)
	}
}

func TestProportionSubcommand(t *testing.T) {
	path := manyValues(t)
	if err := run([]string{"proportion", "-input", path, "-threshold", "1.5", "-c", "0.9"}); err != nil {
		t.Errorf("proportion failed: %v", err)
	}
	if err := run([]string{"proportion", "-input", path, "-threshold", "1.5", "-direction", "atleast"}); err != nil {
		t.Errorf("proportion atleast failed: %v", err)
	}
	if err := run([]string{"proportion", "-input", path, "-c", "2"}); err == nil {
		t.Error("bad confidence should error")
	}
}

func TestHyperSubcommand(t *testing.T) {
	path := manyValues(t)
	if err := run([]string{"hyper", "-input", path, "-gap", "2.0"}); err != nil {
		t.Errorf("hyper failed: %v", err)
	}
	if err := run([]string{"hyper", "-input", path, "-gap-pct", "0.5", "-arity", "3"}); err != nil {
		t.Errorf("hyper gap-pct failed: %v", err)
	}
	if err := run([]string{"hyper", "-input", path}); err == nil {
		t.Error("missing gap should error")
	}
	if err := run([]string{"hyper", "-input", path, "-gap", "1", "-arity", "1"}); err == nil {
		t.Error("arity 1 should error")
	}
}

func TestGem5Input(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 30; i++ {
		content := "---------- Begin Simulation Statistics ----------\n" +
			"system.cpu0.ipc  0." + string(rune('5'+i%4)) + "0  # ipc\n" +
			"---------- End Simulation Statistics   ----------\n"
		if err := os.WriteFile(filepath.Join(dir, "r"+string(rune('a'+i%26))+string(rune('0'+i/26))+".txt"),
			[]byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	glob := filepath.Join(dir, "r*.txt")
	if err := run([]string{"ci", "-gem5", glob, "-metric", "system.cpu0.ipc", "-f", "0.5"}); err != nil {
		t.Errorf("gem5 ci failed: %v", err)
	}
	if err := run([]string{"ci", "-gem5", glob, "-metric", "nope"}); err == nil {
		t.Error("unknown gem5 metric should error")
	}
	if err := run([]string{"ci", "-gem5", filepath.Join(dir, "none*.txt")}); err == nil {
		t.Error("empty glob should error")
	}
}

func TestStatsSubcommand(t *testing.T) {
	dir := t.TempDir()
	content := "---------- Begin Simulation Statistics ----------\n" +
		"system.cpu0.ipc 0.5\nsystem.l2.misses 100\n" +
		"---------- End Simulation Statistics   ----------\n"
	path := filepath.Join(dir, "stats.txt")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"stats", "-gem5", path}); err != nil {
		t.Errorf("stats -gem5 failed: %v", err)
	}
	if err := run([]string{"stats", "-gem5", path, "-find", "l2"}); err != nil {
		t.Errorf("stats -find failed: %v", err)
	}
	// JSON population path.
	vals := []float64{1, 2, 3}
	pop := population.FromValues("b", "m", vals)
	jp := filepath.Join(dir, "pop.json")
	f, err := os.Create(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run([]string{"stats", "-json", jp}); err != nil {
		t.Errorf("stats -json failed: %v", err)
	}
	if err := run([]string{"stats"}); err == nil {
		t.Error("stats without input should error")
	}
}

func TestVersionFlag(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Errorf("-version failed: %v", err)
	}
}

func TestGlobalTelemetryFlags(t *testing.T) {
	path := manyValues(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	metricsPath := filepath.Join(dir, "metrics.prom")
	err := run([]string{
		"-trace", tracePath, "-metrics", metricsPath,
		"ci", "-input", path, "-f", "0.5", "-c", "0.9",
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"name":"spa.ci"`) {
		t.Errorf("trace missing spa.ci span:\n%s", trace)
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "spa_ci_built_total 1") {
		t.Errorf("metrics dump missing CI counter:\n%s", metrics)
	}
	// An SMC test increments the test counter.
	metricsPath2 := filepath.Join(dir, "metrics2.prom")
	err = run([]string{
		"-metrics", metricsPath2,
		"test", "-input", path, "-threshold", "1.5", "-f", "0.5", "-c", "0.9",
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics2, err := os.ReadFile(metricsPath2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics2), "spa_smc_tests_total 1") {
		t.Errorf("metrics dump missing SMC test counter:\n%s", metrics2)
	}
}

// runOut runs spa with args and returns what it printed on stdout.
func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	return string(<-printed), runErr
}

// TestCISim: a fixed -sim CI is the SPA interval of the population the
// flags name.
func TestCISim(t *testing.T) {
	out, err := runOut(t, "ci", "-sim", "swaptions", "-scale", "0.05", "-runs", "30", "-simseed", "5", "-f", "0.5", "-c", "0.9")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := population.Generate("swaptions", sim.DefaultConfig(), 0.05, 30, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := pop.Metric(sim.MetricRuntime)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := core.ConfidenceInterval(xs, core.Params{F: 0.5, C: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("SPA CI: [%.6g, %.6g]\nwidth: %.6g\nsamples: 30, F=0.5, C=0.9, property: metric at-most v\n", iv.Lo, iv.Hi, iv.Width())
	if out != want {
		t.Errorf("spa printed\n%s\nwant\n%s", out, want)
	}
	// A count too large to allocate is refused, not a makeslice panic.
	_, err = runOut(t, "ci", "-sim", "swaptions", "-runs", "4611686018427387904", "-scale", "0.01", "-f", "0.5", "-c", "0.9")
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(population.MaxRuns)) {
		t.Errorf("-runs 2^62: err = %v, want one naming the bound %d", err, population.MaxRuns)
	}
}

// adaptiveArgs is an adaptive -sim CI under design ("" for plain).
func adaptiveArgs(design string, extra ...string) []string {
	args := []string{"ci", "-sim", "swaptions", "-scale", "0.05", "-simseed", "3", "-runs", "256",
		"-f", "0.5", "-c", "0.9", "-target-width", "3e-7"}
	if design != "" {
		args = append(args, "-sampling", design)
	}
	return append(args, extra...)
}

// TestCIAdaptiveIsTheManifestAnswer: spa ci -sim ... -target-width
// answers the one-entry manifest its flags describe, with that
// manifest's interval, sample count and pilot runs.
func TestCIAdaptiveIsTheManifestAnswer(t *testing.T) {
	for _, design := range []string{"", "stratified"} {
		out, err := runOut(t, adaptiveArgs(design)...)
		if err != nil {
			t.Fatalf("sampling %q: %v", design, err)
		}
		m := &manifest.Manifest{Name: "one", Seed: 3, Scale: 0.05,
			Entries: []manifest.Entry{{Benchmark: "swaptions"}},
			Analyses: []manifest.Analysis{{Metric: sim.MetricRuntime, F: 0.5, C: 0.9,
				TargetWidth: 3e-7, MaxSamples: 256, Sampling: design}}}
		rep, err := (&manifest.Runner{OutDir: t.TempDir()}).Run(m)
		if err != nil {
			t.Fatal(err)
		}
		res := rep.Results[0]
		if res.Err != "" || !res.Converged {
			t.Fatalf("sampling %q: manifest result %+v", design, res)
		}
		want := []string{
			fmt.Sprintf(": [%.6g, %.6g]\n", res.Interval.Lo, res.Interval.Hi),
			fmt.Sprintf("samples: %d, ", res.Samples),
		}
		if design != "" {
			want = append(want, fmt.Sprintf("design: %s, pilot runs: %d (scale-reduced)\n", design, res.PilotRuns))
		}
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("sampling %q: spa printed\n%s\nwithout %q", design, out, w)
			}
		}
	}
}

// TestCIAdaptiveOverWorkerMatchesLocal: collecting through one loopback
// worker prints exactly what collecting in-process does.
func TestCIAdaptiveOverWorkerMatchesLocal(t *testing.T) {
	w := &dist.Worker{Parallelism: 2}
	if err := w.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- w.Serve() }()
	t.Cleanup(func() {
		w.Close()
		if err := <-served; err != nil {
			t.Errorf("worker serve: %v", err)
		}
	})
	for _, design := range []string{"", "stratified"} {
		local, err := runOut(t, adaptiveArgs(design)...)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := runOut(t, adaptiveArgs(design, "-workers", w.Addr())...)
		if err != nil {
			t.Fatal(err)
		}
		if remote != local {
			t.Errorf("sampling %q over a worker printed\n%s\nlocally\n%s", design, remote, local)
		}
	}
	if st := w.Status(); st.RunsServed == 0 {
		t.Error("the worker served no runs")
	}
}

// TestCISamplingNeedsTargetWidth: a design is an adaptive question, so
// -sampling without -target-width is refused, by the manifest's rule for
// a real design, and -target-width needs -sim to collect from.
func TestCISamplingNeedsTargetWidth(t *testing.T) {
	for _, args := range [][]string{
		{"ci", "-sim", "swaptions", "-sampling", "stratified"},
		{"ci", "-sim", "swaptions", "-sampling", "plain"},
		{"ci", "-sim", "swaptions", "-pilot-scale", "0.1", "-target-width", "1e-7"},
		{"ci", "-input", manyValues(t), "-target-width", "1e-7"},
	} {
		if _, err := runOut(t, args...); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
	_, err := runOut(t, "ci", "-sim", "swaptions", "-sampling", "rss")
	if err == nil || !strings.Contains(err.Error(), "adaptive analysis") {
		t.Errorf("-sampling rss without -target-width: %v, want the manifest's adaptive-analysis rule", err)
	}
}

// TestCIAdaptiveBuildsOneInterval: an adaptive -sim CI records one built
// interval, and no zero width.
func TestCIAdaptiveBuildsOneInterval(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "m.prom")
	if _, err := runOut(t, append([]string{"-metrics", metricsPath}, adaptiveArgs("stratified")...)...); err != nil {
		t.Fatal(err)
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"spa_ci_built_total 1\n", "spa_ci_width_count 1\n"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics dump lacks %q:\n%s", want, metrics)
		}
	}
}
