package manifest

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/popcache"
	"repro/internal/population"
	"repro/internal/sim"
)

// popFiles are the campaign's population artifacts (the report is compared
// structurally instead: the cached run legitimately differs in Reused).
func popFiles() []string {
	return []string{"tiny-swaptions-default.json", "tiny-swaptions-l2half.json"}
}

func comparePopFiles(t *testing.T, label, got, want string) {
	t.Helper()
	for _, name := range popFiles() {
		g, err := os.ReadFile(filepath.Join(got, name))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		w, err := os.ReadFile(filepath.Join(want, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: %s differs", label, name)
		}
	}
}

// TestRunnerPopCacheHitByteIdentical pins the cache's campaign-level
// contract: a campaign served entirely from the population cache writes
// population files byte-identical to one that simulated from scratch, and
// its analyses produce identical intervals.
func TestRunnerPopCacheHitByteIdentical(t *testing.T) {
	plainDir := t.TempDir()
	plain := &Runner{OutDir: plainDir}
	plainRep, err := plain.Run(tinyManifest())
	if err != nil {
		t.Fatal(err)
	}

	cache := popcache.New(t.TempDir(), 0)
	missDir := t.TempDir()
	miss := &Runner{OutDir: missDir, PopCache: cache}
	missRep, err := miss.Run(tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	comparePopFiles(t, "cache miss", missDir, plainDir)
	if len(missRep.Reused) != 0 {
		t.Fatalf("cold cache reported reuse: %v", missRep.Reused)
	}
	if s := cache.Stats(); s.Puts != 2 {
		t.Fatalf("cache stats after cold campaign: %+v", s)
	}

	// A second process over the same cache directory: no shared memory, no
	// simulation — every entry must come from disk, byte-identical.
	hitDir := t.TempDir()
	hit := &Runner{OutDir: hitDir, PopCache: popcache.New(cache.Dir(), 0)}
	hitRep, err := hit.Run(tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	comparePopFiles(t, "cache hit", hitDir, plainDir)
	if len(hitRep.Reused) != 2 {
		t.Fatalf("warm cache reused %v", hitRep.Reused)
	}
	if s := hit.PopCache.Stats(); s.DiskHits != 2 || s.Misses != 0 {
		t.Fatalf("cache stats after warm campaign: %+v", s)
	}
	if len(hitRep.Results) != len(plainRep.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(hitRep.Results), len(plainRep.Results))
	}
	for i, got := range hitRep.Results {
		if !reflect.DeepEqual(got, plainRep.Results[i]) {
			t.Errorf("analysis %d differs: cached %+v, plain %+v", i, got, plainRep.Results[i])
		}
	}
}

// TestRunnerPopCacheThroughDistWorkers drives the miss path through two
// real workers: the distributed campaign fills the cache, and a later local
// campaign served from it is byte-identical to a plain local campaign —
// the cache composes with distribution without perturbing determinism.
func TestRunnerPopCacheThroughDistWorkers(t *testing.T) {
	plainDir := runCampaignDir(t, nil)

	cache := popcache.New(t.TempDir(), 0)
	distDir := t.TempDir()
	distRunner := &Runner{OutDir: distDir, Workers: startDistWorkers(t, 2), PopCache: cache}
	if _, err := distRunner.Run(tinyManifest()); err != nil {
		t.Fatal(err)
	}
	comparePopFiles(t, "distributed miss", distDir, plainDir)

	hitDir := t.TempDir()
	// No Workers here: a hit needs no simulation capacity at all.
	hitRunner := &Runner{OutDir: hitDir, PopCache: popcache.New(cache.Dir(), 0)}
	rep, err := hitRunner.Run(tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	comparePopFiles(t, "hit after distributed fill", hitDir, plainDir)
	if len(rep.Reused) != 2 {
		t.Fatalf("expected both entries served from cache, got %v", rep.Reused)
	}
}

// pilotManifest asks two stratified adaptive questions — on runtime_s
// and on l2_mpki — of one entry, so both designs fetch the same pilot
// blocks (swaptions at half the campaign scale, 32 seeds from 21).
func pilotManifest() *Manifest {
	m := samplingManifest("stratified")
	m.Analyses = append(m.Analyses, Analysis{Metric: sim.MetricL2MPKI, F: 0.5, C: 0.9,
		TargetWidth: 1e-9, MaxSamples: 48, Sampling: "stratified"})
	return m
}

// TestRunnerPilotBlocksCachedWhole: with a shared popcache, the second
// analysis's pilot blocks come from the cache, so they must carry every
// metric — the report is byte-identical to an uncached campaign's.
func TestRunnerPilotBlocksCachedWhole(t *testing.T) {
	plain := &Runner{OutDir: t.TempDir()}
	if _, err := plain.Run(pilotManifest()); err != nil {
		t.Fatal(err)
	}
	cached := &Runner{OutDir: t.TempDir(), PopCache: popcache.New("", 0)}
	if _, err := cached.Run(pilotManifest()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(plain.ReportPath(pilotManifest()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cached.ReportPath(pilotManifest()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report with a shared popcache differs:\n%s\nwithout:\n%s", got, want)
	}
}

// TestRunnerEntryAtPilotRecipe: a fixed entry whose recipe equals a
// pilot block's is served that block from the cache, and gets every
// metric, byte-identical to an uncached generation.
func TestRunnerEntryAtPilotRecipe(t *testing.T) {
	cache := popcache.New("", 0)
	design := samplingManifest("stratified")
	if _, err := (&Runner{OutDir: t.TempDir(), PopCache: cache}).Run(design); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Name: "pilot", Seed: design.Seed, Scale: design.Scale / 2, Runs: 32,
		Entries:  []Entry{{Benchmark: "swaptions"}},
		Analyses: []Analysis{{Metric: sim.MetricIPC, F: 0.5, C: 0.9}}}
	dir := t.TempDir()
	rep, err := (&Runner{OutDir: dir, PopCache: cache}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reused) != 1 || rep.Results[0].Err != "" {
		t.Fatalf("entry at the pilot recipe: reused %v, result %+v", rep.Reused, rep.Results[0])
	}
	got, err := os.ReadFile(filepath.Join(dir, "pilot-swaptions-default.json"))
	if err != nil {
		t.Fatal(err)
	}
	pop, err := population.GenerateHooked("swaptions", sim.DefaultConfig(), m.Scale, m.Runs, m.Seed, 0, population.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := pop.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("entry served from a cached pilot block differs from an uncached generation")
	}
}
