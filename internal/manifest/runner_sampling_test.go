package manifest

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/popcache"
	"repro/internal/sim"
)

// samplingManifest is one adaptive analysis under the given design, on a
// fast benchmark at small scale.
func samplingManifest(design string) *Manifest {
	return &Manifest{
		Name:  "vr",
		Seed:  21,
		Scale: 0.05,
		Runs:  8,
		Entries: []Entry{
			{Benchmark: "swaptions"},
		},
		Analyses: []Analysis{
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9, TargetWidth: 0.02,
				MaxSamples: 1024, Sampling: design},
		},
	}
}

func TestRunnerSamplingDesigns(t *testing.T) {
	for _, design := range []string{"stratified", "rss"} {
		r := &Runner{OutDir: t.TempDir()}
		rep, err := r.Run(samplingManifest(design))
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		res := rep.Results[0]
		if res.Err != "" {
			t.Fatalf("%s: analysis failed: %s", design, res.Err)
		}
		if res.Sampling != design {
			t.Errorf("%s: result records sampling %q", design, res.Sampling)
		}
		if !res.Converged || res.Interval.Width() > 0.02 {
			t.Errorf("%s: did not converge to target: %+v", design, res)
		}
		if res.PilotRuns == 0 {
			t.Errorf("%s: no pilot runs recorded", design)
		}
		if res.Samples == 0 || len(res.Rounds) == 0 {
			t.Errorf("%s: missing samples/rounds: %+v", design, res)
		}
	}
}

// TestRunnerSamplingDistMatchesLocal pins backend-independence of the
// design path: the same manifest collected through real workers yields
// the identical interval, sample count and per-round trajectory as the
// local path — seed selection depends on pilot values, never on where
// runs execute.
func TestRunnerSamplingDistMatchesLocal(t *testing.T) {
	for _, design := range []string{"stratified", "rss"} {
		local := &Runner{OutDir: t.TempDir()}
		lrep, err := local.Run(samplingManifest(design))
		if err != nil {
			t.Fatalf("%s local: %v", design, err)
		}
		remote := &Runner{OutDir: t.TempDir(), Workers: startDistWorkers(t, 2)}
		rrep, err := remote.Run(samplingManifest(design))
		if err != nil {
			t.Fatalf("%s dist: %v", design, err)
		}
		lres, rres := lrep.Results[0], rrep.Results[0]
		if lres.Interval != rres.Interval || lres.Samples != rres.Samples {
			t.Errorf("%s: dist result differs: local %+v, dist %+v", design, lres, rres)
		}
		if len(lres.Rounds) != len(rres.Rounds) {
			t.Fatalf("%s: round count differs: %d vs %d", design, len(lres.Rounds), len(rres.Rounds))
		}
		for i := range lres.Rounds {
			if lres.Rounds[i] != rres.Rounds[i] {
				t.Errorf("%s: round %d differs: %+v vs %+v", design, i, lres.Rounds[i], rres.Rounds[i])
			}
		}
	}
}

// TestRunnerSamplingPopCacheReuse: a second identical campaign with a
// shared population cache re-runs nothing — the cumulative measured
// population is served from the cache.
func TestRunnerSamplingPopCacheReuse(t *testing.T) {
	cache := popcache.New("", 0)
	reg := obs.NewRegistry()
	first := &Runner{OutDir: t.TempDir(), PopCache: cache, Obs: &obs.Observer{Metrics: reg}}
	frep, err := first.Run(samplingManifest("stratified"))
	if err != nil {
		t.Fatal(err)
	}
	warm := cache.Stats()
	if warm.Puts == 0 {
		t.Fatal("first campaign fed nothing to the cache")
	}

	second := &Runner{OutDir: t.TempDir(), PopCache: cache}
	srep, err := second.Run(samplingManifest("stratified"))
	if err != nil {
		t.Fatal(err)
	}
	if frep.Results[0].Interval != srep.Results[0].Interval {
		t.Errorf("cached campaign interval differs: %+v vs %+v",
			frep.Results[0].Interval, srep.Results[0].Interval)
	}
	if srep.Results[0].PilotRuns != 0 {
		t.Errorf("cached campaign ran %d pilot runs, want 0", srep.Results[0].PilotRuns)
	}
	after := cache.Stats()
	if after.MemHits <= warm.MemHits {
		t.Errorf("second campaign hit the cache %d times, first %d", after.MemHits, warm.MemHits)
	}
}
