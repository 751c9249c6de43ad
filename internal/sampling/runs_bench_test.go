package sampling

// BenchmarkRunsToWidth measures the economic claim behind the
// variance-reduction designs: how many simulator executions each design
// needs before AnalyzeToWidth's interval narrows to a fixed target. The
// target per profile is what the plain construction achieves at 400
// samples, so "plain" converges near 400 full runs by construction and
// the design rows show the savings. Three custom metrics feed
// BENCH_10.json via benchreport:
//
//	full-runs/op   full-fidelity executions (the paper's unit of cost)
//	pilot-runs/op  pilot-scale proxy executions the design spent
//	run-cost/op    full-runs + pilot-runs scaled by relative simulation
//	               cost, i.e. total work in full-run equivalents
//
// The design rows run their pilot at half the campaign scale. The rows
// suffixed -pilot0.1 rerun them with the pilot at a tenth of it: ranked
// set sampling assumes a pilot much cheaper than a full run (Ekman), and
// those rows test whether RSS pays off when that holds.
//
// Run with -benchtime=1x: one campaign per sub-benchmark is the
// measurement — everything is seed-deterministic, so more iterations
// only repeat the identical campaign.

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	benchScale           = 0.05
	benchPilotScale      = benchScale / 2
	benchTenthPilotScale = benchScale / 10
	benchTargetN         = 400
)

var benchParams = core.Params{F: 0.5, C: 0.9}

// targetWidths memoizes the per-profile target so the three design rows
// of one profile share a single 400-sample plain calibration.
var targetWidths sync.Map

func targetWidthFor(b *testing.B, bench string, cfg sim.Config) float64 {
	b.Helper()
	if w, ok := targetWidths.Load(bench); ok {
		return w.(float64)
	}
	an, err := core.AnalyzeWith(core.FuncCollector(simRunFunc(bench, cfg, benchScale)),
		benchParams, core.Options{Samples: benchTargetN, BaseSeed: 1})
	if err != nil {
		b.Fatalf("%s: calibrating target width: %v", bench, err)
	}
	targetWidths.Store(bench, an.Interval.Width())
	return an.Interval.Width()
}

// runsToWidth runs one adaptive campaign under the design, with its pilot
// at pilotScale, and returns (full runs, pilot runs, final sample count).
func runsToWidth(b *testing.B, bench string, cfg sim.Config, d Design, pilotScale, target float64) (int, int, int) {
	b.Helper()
	var fullRuns atomic.Int64
	counted := core.RunFunc(func(seed uint64) (float64, error) {
		fullRuns.Add(1)
		return simRunFunc(bench, cfg, benchScale)(seed)
	})
	w := core.WidthOptions{TargetWidth: target, MaxSamples: 4096, BaseSeed: 1}

	if d == Plain {
		an, err := core.AnalyzeToWidthWith(core.FuncCollector(counted), benchParams, w)
		if err != nil {
			b.Fatalf("%s/plain: %v", bench, err)
		}
		return int(fullRuns.Load()), 0, len(an.Samples)
	}

	c, err := New(Options{Design: d}, core.FuncCollector(counted), simPilot(bench, cfg, pilotScale, 0))
	if err != nil {
		b.Fatal(err)
	}
	an, err := core.AnalyzeToWidthWith(c, benchParams, w)
	if err != nil {
		b.Fatalf("%s/%s: %v", bench, d, err)
	}
	st := c.Stats()
	return st.FullRuns, st.PilotRuns, len(an.Samples)
}

func BenchmarkRunsToWidth(b *testing.B) {
	cfg := sim.DefaultConfig()
	rows := []struct {
		d          Design
		pilotScale float64
		suffix     string
	}{
		{Plain, benchPilotScale, ""},
		{Stratified, benchPilotScale, ""},
		{RSS, benchPilotScale, ""},
		{Stratified, benchTenthPilotScale, "-pilot0.1"},
		{RSS, benchTenthPilotScale, "-pilot0.1"},
	}
	for _, bench := range workload.Names() {
		for _, row := range rows {
			b.Run(bench+"/"+row.d.String()+row.suffix, func(b *testing.B) {
				target := targetWidthFor(b, bench, cfg)
				var full, pilots, samples int
				for i := 0; i < b.N; i++ {
					f, p, n := runsToWidth(b, bench, cfg, row.d, row.pilotScale, target)
					full += f
					pilots += p
					samples += n
				}
				n := float64(b.N)
				b.ReportMetric(float64(full)/n, "full-runs/op")
				b.ReportMetric(float64(pilots)/n, "pilot-runs/op")
				b.ReportMetric((float64(full)+float64(pilots)*row.pilotScale/benchScale)/n, "run-cost/op")
				b.ReportMetric(float64(samples)/n, "samples/op")
			})
		}
	}
}
