package sim

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/randx"
	"repro/internal/workload"
)

// warmRunBytes bounds what a warm run allocates: its Result, metrics map
// and trace. The machine and the program are reused.
const warmRunBytes = 8 << 10

// allocatedPerRun returns the bytes f allocates per call, over runs calls.
func allocatedPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestWarmRunAllocation: once an arena has run a profile, running it again
// allocates only the Result, for every profile.
func TestWarmRunAllocation(t *testing.T) {
	r := NewRunner()
	for _, bench := range workload.Names() {
		run := func() {
			if _, err := r.Run(bench, DefaultConfig(), 0.05, 3); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if b := allocatedPerRun(4, run); b >= warmRunBytes {
			t.Errorf("%s: a warm run allocated %d B, want under %d", bench, b, warmRunBytes)
		}
	}
}

// TestRunKeepsArenaAcrossGC: the package-level Run's idle arenas survive
// garbage collections, so the next call does not rebuild a machine. Two
// collections, because a sync.Pool keeps its objects through one.
func TestRunKeepsArenaAcrossGC(t *testing.T) {
	run := func() {
		if _, err := Run("swaptions", DefaultConfig(), 0.05, 5); err != nil {
			t.Fatal(err)
		}
	}
	run()
	runtime.GC()
	runtime.GC()
	if b := allocatedPerRun(1, run); b >= warmRunBytes {
		t.Errorf("a run right after a GC allocated %d B, want under %d", b, warmRunBytes)
	}
}

// TestRunProgramReplays: RunProgram only reads its program, so a program
// built once gives the same result on every replay, and the same as Run.
func TestRunProgramReplays(t *testing.T) {
	p, err := workload.ByName("dedup")
	if err != nil {
		t.Fatal(err)
	}
	prog := p.Build(0.05, randx.New(defaultProgSeed))
	want, err := Run("dedup", DefaultConfig(), 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		got, err := RunProgram(prog, DefaultConfig(), randx.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || metricsDigest(got) != metricsDigest(want) {
			t.Fatalf("replay %d: %d cycles, want %d", rep, got.Cycles, want.Cycles)
		}
	}
}

// TestMaxScaleFitsProgramCache pins workload.MaxScale's reason: at the
// bound every built-in program fits maxCachedOps, and a little past it the
// largest one, canneal, does not.
func TestMaxScaleFitsProgramCache(t *testing.T) {
	ops := func(name string, scale float64) int {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p.Build(scale, randx.New(defaultProgSeed)).Len()
	}
	for _, name := range workload.Names() {
		if n := ops(name, workload.MaxScale); n > maxCachedOps {
			t.Errorf("%s at scale %v has %d ops, over the %d cap", name, workload.MaxScale, n, maxCachedOps)
		}
	}
	if n := ops("canneal", 4.3); n <= maxCachedOps {
		t.Errorf("canneal at scale 4.3 has %d ops, within the %d cap: MaxScale can rise", n, maxCachedOps)
	}
}

// TestProgramLargerThanCacheKeptAlone: a program over maxCachedOps runs
// like a freshly built one and is then the cache's only entry, so its next
// run replays it instead of building it again; the next key drops it.
func TestProgramLargerThanCacheKeptAlone(t *testing.T) {
	const bench, scale = "swaptions", 20.0
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	prog := p.Build(scale, randx.New(defaultProgSeed))
	if prog.Len() <= maxCachedOps {
		t.Fatalf("%s at scale %g has %d ops, not over the %d cap", bench, scale, prog.Len(), maxCachedOps)
	}
	want, err := RunProgram(prog, DefaultConfig(), randx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run("ferret", DefaultConfig(), 0.05, 1); err != nil {
		t.Fatal(err)
	}
	got, err := Run(bench, DefaultConfig(), scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || metricsDigest(got) != metricsDigest(want) {
		t.Errorf("cache path: %d cycles, want %d", got.Cycles, want.Cycles)
	}
	big := programKey{bench, math.Float64bits(scale)}
	programs.Lock()
	kept, entries := programs.byKey[big], len(programs.byKey)
	programs.Unlock()
	if kept == nil || entries != 1 {
		t.Errorf("over-cap program cached: %t, cache entries: %d; want it alone", kept != nil, entries)
	}
	if _, err := Run("ferret", DefaultConfig(), 0.05, 1); err != nil {
		t.Fatal(err)
	}
	programs.Lock()
	defer programs.Unlock()
	if programs.byKey[big] != nil {
		t.Error("the next key did not drop the over-cap program")
	}
	if programs.byKey[programKey{"ferret", math.Float64bits(0.05)}] == nil {
		t.Error("the next key was not cached")
	}
}

// TestConcurrentRunsShareProgram runs one cached program on several arenas
// at once; each run matches the serial one. Under -race this also checks
// that replays only read the program.
func TestConcurrentRunsShareProgram(t *testing.T) {
	cfg := DefaultConfig()
	want := make(map[uint64]*Result)
	for seed := uint64(1); seed <= 4; seed++ {
		res, err := NewRunner().Run("ferret", cfg, 0.05, seed)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = res
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewRunner()
			for seed := uint64(1); seed <= 4; seed++ {
				res, err := r.Run("ferret", cfg, 0.05, seed)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Cycles != want[seed].Cycles || metricsDigest(res) != metricsDigest(want[seed]) {
					t.Errorf("seed %d: concurrent run differs from the serial one", seed)
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentMissesBuildOnce: arenas that miss one program key at the
// same moment wait for a single build, and every run equals the serial
// one. A build that fails releases its waiters and is not cached.
func TestConcurrentMissesBuildOnce(t *testing.T) {
	const bench, scale, arenas = "streamcluster", 0.0625, 8 // a key no other test runs
	// Dropping the key first keeps it new under -count.
	key := programKey{bench, math.Float64bits(scale)}
	programs.Lock()
	if e := programs.byKey[key]; e != nil {
		programs.ops -= e.prog.Len()
		delete(programs.byKey, key)
	}
	programs.Unlock()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewRunner().RunProgram(p.Build(scale, randx.New(defaultProgSeed)), DefaultConfig(), randx.New(4))
	if err != nil {
		t.Fatal(err)
	}
	builds := func() int {
		programs.Lock()
		defer programs.Unlock()
		return programs.builds
	}
	// runAll runs profile on arenas Runners released at once and returns
	// each run's result and error.
	runAll := func(profile string) ([]*Result, []error) {
		res, errs := make([]*Result, arenas), make([]error, arenas)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range res {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := NewRunner()
				<-start
				res[i], errs[i] = r.Run(profile, DefaultConfig(), scale, 4)
			}()
		}
		close(start)
		wg.Wait()
		return res, errs
	}

	before := builds()
	res, errs := runAll(bench)
	if n := builds() - before; n != 1 {
		t.Errorf("%d arenas missing one key at once ran %d builds, want 1", arenas, n)
	}
	for i := range res {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res[i].Cycles != want.Cycles || metricsDigest(res[i]) != metricsDigest(want) {
			t.Errorf("arena %d: %d cycles, want the serial run's %d", i, res[i].Cycles, want.Cycles)
		}
	}

	const unknown = "no-such-profile"
	_, errs = runAll(unknown)
	for i, err := range errs {
		if err == nil {
			t.Errorf("arena %d ran unknown profile %q without an error", i, unknown)
		}
	}
	programs.Lock()
	cached := programs.byKey[programKey{unknown, math.Float64bits(scale)}]
	programs.Unlock()
	if cached != nil {
		t.Error("a failed build stayed in the cache")
	}
	if _, err := NewRunner().Run(unknown, DefaultConfig(), scale, 4); err == nil {
		t.Error("the call after a failed build did not fail again")
	}
}

// switchConfigs lists every golden variant and a 2-core system in an
// order that switches Config at every step and grows and shrinks every
// array an arena recycles: the L2 grows from l2half to the Table 2 size
// and shrinks back, and the L1 set shrinks to two cores and grows back
// to four.
func switchConfigs(t *testing.T) []Config {
	named := func(name string) Config {
		cfg, err := VariantConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	twoCore := DefaultConfig()
	twoCore.Cores = 2
	cfgs := []Config{named("l2half"), DefaultConfig(), twoCore, named("l2double")}
	for _, g := range goldenConfigs {
		cfg := DefaultConfig()
		g.edit(&cfg)
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// switchRunBytes bounds what a run allocates on an arena that switched
// Config to a geometry it has seen: the new machine's small structures
// and the Result, with no cache array but the L1s a 2-core machine gave up.
const switchRunBytes = 48 << 10

// TestConfigSwitchMatchesFreshArena: an arena that switches Config at
// every run, and so recycles its cache and directory arrays, gives the
// result a fresh arena gives. Once it has seen each Config, a switch
// allocates no L2 array.
func TestConfigSwitchMatchesFreshArena(t *testing.T) {
	cfgs := switchConfigs(t)
	r := NewRunner()
	for _, bench := range []string{"dedup", "canneal"} {
		for i, cfg := range cfgs {
			seed := uint64(i + 1)
			want, err := NewRunner().Run(bench, cfg, 0.05, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Run(bench, cfg, 0.05, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cycles != want.Cycles || metricsDigest(got) != metricsDigest(want) {
				t.Errorf("%s config %d: %d cycles after a switch, %d on a fresh arena", bench, i, got.Cycles, want.Cycles)
			}
		}
	}
	i := 0
	pass := func() {
		if _, err := r.Run("dedup", cfgs[i%len(cfgs)], 0.05, 1); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if b := allocatedPerRun(len(cfgs), pass); b >= switchRunBytes {
		t.Errorf("a run after a switch to a seen Config allocated %d B, want under %d", b, switchRunBytes)
	}
}
