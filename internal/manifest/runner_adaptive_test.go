package manifest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// adaptiveManifest pairs one converging and one budget-bound adaptive
// analysis on a single fast entry.
func adaptiveManifest() *Manifest {
	return &Manifest{
		Name:  "adapt",
		Seed:  11,
		Scale: 0.05,
		Runs:  16,
		Entries: []Entry{
			{Benchmark: "swaptions"},
		},
		Analyses: []Analysis{
			// A target so loose the first round satisfies it.
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9, TargetWidth: 1e6, MaxSamples: 64},
			// A target so tight the budget runs out first, forcing several
			// refinement rounds.
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9, TargetWidth: 1e-12, MaxSamples: 40, GrowBatch: 8},
		},
	}
}

func runAdaptive(t *testing.T, workers []string) (string, *Report, *obs.Registry) {
	t.Helper()
	dir := t.TempDir()
	reg := obs.NewRegistry()
	r := &Runner{OutDir: dir, Workers: workers, Obs: &obs.Observer{Metrics: reg}}
	rep, err := r.Run(adaptiveManifest())
	if err != nil {
		t.Fatal(err)
	}
	return dir, rep, reg
}

func TestRunnerAdaptiveAnalyses(t *testing.T) {
	dir, rep, reg := runAdaptive(t, nil)
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results", len(rep.Results))
	}

	loose, tight := rep.Results[0], rep.Results[1]
	if !loose.Converged || len(loose.Rounds) != 1 {
		t.Errorf("loose target should converge in one round: %+v", loose)
	}
	if tight.Converged {
		t.Errorf("tight target cannot converge within 40 samples: %+v", tight)
	}
	if tight.Err != "" {
		t.Errorf("budget exhaustion must keep the interval usable, got error %q", tight.Err)
	}
	if !tight.Interval.IsValid() || tight.Samples != 40 {
		t.Errorf("budget-bound result wrong: %+v", tight)
	}
	if len(tight.Rounds) < 2 {
		t.Fatalf("tight target took %d rounds, want several", len(tight.Rounds))
	}
	prev := 0
	for i, rd := range tight.Rounds {
		if rd.Round != i+1 || rd.Samples <= prev || rd.Width <= 0 || rd.Target != 1e-12 {
			t.Errorf("round %d malformed: %+v", i, rd)
		}
		prev = rd.Samples
	}
	if last := tight.Rounds[len(tight.Rounds)-1]; last.Samples != tight.Samples {
		t.Errorf("last round samples %d != result samples %d", last.Samples, tight.Samples)
	}

	// The convergence gauges hold the final round's state.
	l := obs.Labels{"entry": "swaptions-default", "metric": sim.MetricRuntime, "method": "SPA"}
	if got := reg.GaugeL(obs.MetricCIConvergenceRuns, l).Value(); got != 40 {
		t.Errorf("convergence runs gauge = %v, want 40", got)
	}
	if got := reg.GaugeL(obs.MetricCIConvergenceTarget, l).Value(); got != 1e-12 {
		t.Errorf("convergence target gauge = %v", got)
	}

	// The report file is the trajectory's one record: its rounds decode
	// back into the same records the returned report holds.
	body, err := os.ReadFile(filepath.Join(dir, "adapt-report.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk Report
	if err := json.Unmarshal(body, &onDisk); err != nil {
		t.Fatal(err)
	}
	if len(onDisk.Results) != 2 || !reflect.DeepEqual(onDisk.Results[0].Rounds, loose.Rounds) ||
		!reflect.DeepEqual(onDisk.Results[1].Rounds, tight.Rounds) {
		t.Errorf("report file rounds do not match the returned report:\n%+v\nvs\n%+v", onDisk.Results, rep.Results)
	}
	if _, err := os.Stat(filepath.Join(dir, "adapt-telemetry.jsonl")); !os.IsNotExist(err) {
		t.Errorf("campaign wrote a separate convergence journal (stat: %v)", err)
	}
}

// TestRunnerAdaptiveDeterministic re-runs the adaptive campaign and
// requires the full trajectory — samples, widths, round counts — to be
// identical: telemetry observes the run, it never steers the samples.
func TestRunnerAdaptiveDeterministic(t *testing.T) {
	_, rep1, _ := runAdaptive(t, nil)
	_, rep2, _ := runAdaptive(t, nil)
	if !reflect.DeepEqual(rep1.Results, rep2.Results) {
		t.Errorf("adaptive campaigns diverge:\n%+v\nvs\n%+v", rep1.Results, rep2.Results)
	}
}

// TestRunnerAdaptiveThroughWorkers runs the same adaptive campaign over
// real workers and requires the identical trajectory: the collector seam
// guarantees remote refinement rounds see the same samples.
func TestRunnerAdaptiveThroughWorkers(t *testing.T) {
	_, local, _ := runAdaptive(t, nil)
	_, distrep, _ := runAdaptive(t, startDistWorkers(t, 2))
	if !reflect.DeepEqual(local.Results, distrep.Results) {
		t.Errorf("distributed adaptive trajectory diverges:\n%+v\nvs\n%+v", local.Results, distrep.Results)
	}
}
