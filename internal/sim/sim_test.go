package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/randx"
	"repro/internal/stats"
	"repro/internal/workload"
)

// testScale keeps unit-test simulations fast; the distributions at this
// scale are not meaningful, only the mechanics.
const testScale = 0.08

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = 100 },
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.BlockSize = 48 },
		func(c *Config) { c.L2Banks = 0 },
		func(c *Config) { c.SampleInterval = 0 },
		func(c *Config) { c.MaxCycles = 0 },
		func(c *Config) { c.ColocationProb = 1.5 },
		// One case per bound on what a Config makes a process allocate or
		// loop over, and on its floats.
		func(c *Config) { c.BlockSize = 8 },
		func(c *Config) { c.BlockSize = 1 << 13 },
		func(c *Config) { c.L1ISize = 1 << 21 },
		func(c *Config) { c.L1DSize = 1 << 40 },
		func(c *Config) { c.L2Size = 1 << 40 },
		func(c *Config) { c.L2Ways = 1 << 20 },
		func(c *Config) { c.L1IWays = 0 },
		func(c *Config) { c.PageSize = 1 << 40 },
		func(c *Config) { c.PageSize = 32 },
		func(c *Config) { c.PageSize = 3 << 12 },
		func(c *Config) { c.BPEntries = math.MaxInt },
		func(c *Config) { c.BPHistoryBits = 64 },
		func(c *Config) { c.TLBEntries = 1 << 30 },
		func(c *Config) { c.L2Banks = 1 << 40 },
		func(c *Config) { c.LinkBytes = 0 },
		func(c *Config) { c.LinkBytes = 128 },
		func(c *Config) { c.MSHRs = 1 << 40 },
		func(c *Config) { c.CtxSwitchKernelBlocks = 1 << 40 },
		func(c *Config) { c.SampleInterval = 1 },
		func(c *Config) { c.FreqGHz = math.Inf(1) },
		func(c *Config) { c.MigrationFlush = 1.5 },
		func(c *Config) { c.OSNoiseRate = -0.1 },
		func(c *Config) { c.ColocationProb = math.NaN() },
		func(c *Config) { c.ColocationFactor = math.Inf(-1) },
		func(c *Config) { c.Thermal.CoolRate = 2 },
		func(c *Config) { c.Thermal.HeatRate = math.NaN() },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate the config", i)
		}
	}
	// Every bound is inclusive.
	edge := DefaultConfig()
	edge.BlockSize, edge.PageSize, edge.LinkBytes = 4096, 1<<30, 4096
	edge.L1ISize, edge.L1DSize, edge.L2Size = 1<<20, 1<<20, 1<<26
	edge.L1IWays, edge.L1DWays, edge.L2Ways = 64, 64, 64
	edge.BPEntries, edge.BPHistoryBits, edge.TLBEntries = 1<<20, 20, 1<<14
	edge.L2Banks, edge.MSHRs, edge.CtxSwitchKernelBlocks = 64, 256, 1<<16
	edge.SampleInterval, edge.MaxCycles = 1, 1<<20
	edge.MigrationFlush, edge.OSNoiseRate, edge.ColocationProb, edge.Thermal.CoolRate = 1, 1, 1, 1
	if err := edge.Validate(); err != nil {
		t.Errorf("a config at every bound is refused: %v", err)
	}
}

func TestAllProfilesRun(t *testing.T) {
	cfg := DefaultConfig()
	for _, name := range workload.Names() {
		res, err := Run(name, cfg, testScale, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Benchmark != name {
			t.Errorf("%s: result labeled %q", name, res.Benchmark)
		}
		if res.Cycles == 0 || res.Instructions == 0 {
			t.Errorf("%s: empty execution", name)
		}
		for _, metric := range []string{
			MetricRuntime, MetricIPC, MetricL1DMPKI, MetricL2MPKI,
			MetricMaxLoadLat, MetricAvgLoadLat, MetricBranchMPKI, MetricTLBMPKI,
		} {
			v, ok := res.Metric(metric)
			if !ok {
				t.Errorf("%s: missing metric %s", name, metric)
				continue
			}
			if math.IsNaN(v) || v < 0 {
				t.Errorf("%s: metric %s = %v", name, metric, v)
			}
		}
		if res.Metrics[MetricRuntime] <= 0 || res.Metrics[MetricIPC] <= 0 {
			t.Errorf("%s: degenerate runtime/ipc", name)
		}
	}
}

func TestRunUnknownProfile(t *testing.T) {
	if _, err := Run("nope", DefaultConfig(), 1, 1); err == nil {
		t.Error("unknown profile should error")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := DefaultConfig()
	a, err := Run("ferret", cfg, testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("ferret", cfg, testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", a.Cycles, a.Instructions, b.Cycles, b.Instructions)
	}
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Errorf("metric %s differs: %v vs %v", k, v, b.Metrics[k])
		}
	}
}

func TestVariabilityInjectionCreatesSpread(t *testing.T) {
	cfg := DefaultConfig()
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		res, err := Run("ferret", cfg, testScale, seed)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Cycles] = true
	}
	if len(seen) < 2 {
		t.Error("injected jitter should perturb runtimes across seeds")
	}
}

func TestNoInjectionIsDeterministicAcrossSeeds(t *testing.T) {
	// The ablation's degenerate case (Sec. 2.2): without injected
	// variability a deterministic simulator produces identical executions
	// regardless of the seed.
	cfg := DefaultConfig()
	cfg.JitterMax = -1 // no DRAM jitter
	cfg.ASLRPages = 0  // no layout randomization
	var first uint64
	for seed := uint64(0); seed < 5; seed++ {
		res, err := Run("ferret", cfg, testScale, seed)
		if err != nil {
			t.Fatal(err)
		}
		if seed == 0 {
			first = res.Cycles
		} else if res.Cycles != first {
			t.Fatalf("seed %d gave %d cycles, seed 0 gave %d — should be identical without injection",
				seed, res.Cycles, first)
		}
	}
}

func TestColocationCreatesSlowMode(t *testing.T) {
	cfg := HardwareLikeConfig()
	cfg.OSNoiseRate = 0 // isolate the colocation effect
	var clean, slow []float64
	for seed := uint64(0); seed < 30; seed++ {
		res, err := Run("ferret", cfg, testScale, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct the per-run colocation draw the machine made.
		r := randx.New(seed)
		if r.Split(11).Bernoulli(cfg.ColocationProb) {
			slow = append(slow, float64(res.Cycles))
		} else {
			clean = append(clean, float64(res.Cycles))
		}
	}
	if len(slow) == 0 || len(clean) == 0 {
		t.Skip("colocation draw did not produce both modes in 30 seeds")
	}
	if stats.Mean(slow) < stats.Mean(clean)*1.05 {
		t.Errorf("colocated runs (mean %.0f) should be clearly slower than clean runs (mean %.0f)",
			stats.Mean(slow), stats.Mean(clean))
	}
}

func TestTraceSignalsComplete(t *testing.T) {
	res, err := Run("streamcluster", DefaultConfig(), testScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("missing trace")
	}
	for _, sig := range []string{
		"ipc", "l1d_mpki", "l2_mpki", "tlb_miss", "mispredict",
		"temp", "sprint", "sprint_enter", "thermal_alert",
	} {
		if !res.Trace.Has(sig) {
			t.Errorf("trace missing signal %q", sig)
			continue
		}
		vals, err := res.Trace.Signal(sig)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if math.IsNaN(v) || v < 0 {
				t.Errorf("signal %s[%d] = %v", sig, i, v)
				break
			}
		}
	}
	// Boolean signals stay in {0,1}.
	for _, sig := range []string{"sprint", "sprint_enter", "thermal_alert"} {
		vals, _ := res.Trace.Signal(sig)
		for i, v := range vals {
			if v != 0 && v != 1 {
				t.Errorf("boolean signal %s[%d] = %v", sig, i, v)
				break
			}
		}
	}
}

// After a full run the MESI directory must satisfy its safety invariants,
// every L1-resident data block must be directory-tracked for that core,
// and every directory-tracked block must be L2-resident (inclusion).
func TestEndOfRunCoherenceInvariants(t *testing.T) {
	for _, name := range []string{"ferret", "canneal", "streamcluster"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog := p.Build(testScale, randx.New(0x0BEEF))
		r := NewRunner()
		if _, err := r.RunProgram(prog, DefaultConfig(), randx.New(7)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := &r.m
		if err := m.dir.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for c := 0; c < m.cfg.Cores; c++ {
			for _, blk := range m.l1d[c].Blocks() {
				state, holders := m.dir.StateOf(blk)
				if state.String() == "I" {
					t.Errorf("%s: core %d holds untracked block %#x", name, c, blk)
					continue
				}
				found := false
				for _, h := range holders {
					if h == c {
						found = true
					}
				}
				if !found {
					t.Errorf("%s: core %d holds block %#x not listed in directory", name, c, blk)
				}
				if !m.l2.Contains(blk) {
					t.Errorf("%s: inclusion violated for block %#x", name, blk)
				}
			}
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A thread that consumes from a queue nobody fills must deadlock.
	prog := &workload.Program{
		Name:    "deadlock",
		Threads: [][]workload.Op{{workload.Consume(0)}},
		Queues:  []workload.QueueSpec{{ID: 0, Capacity: 1}},
	}
	_, err := RunProgram(prog, DefaultConfig(), randx.New(1))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("expected deadlock error, got %v", err)
	}
}

func TestCycleBudgetEnforced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 100
	_, err := Run("ferret", cfg, testScale, 1)
	if err == nil || !strings.Contains(err.Error(), "cycle budget") {
		t.Errorf("expected budget error, got %v", err)
	}
}

// TestActivationSlots pins the event queue on a 64-core machine:
// activations pop in (time, core) order, a tie going to the lower core, and
// a second pending activation on one core is refused.
func TestActivationSlots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 64
	prog := &workload.Program{Name: "idle", Threads: [][]workload.Op{nil}}
	var m machine
	if err := m.build(cfg); err != nil {
		t.Fatal(err)
	}
	if err := m.initRun(prog, randx.New(1)); err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		core int
		at   uint64
	}{{63, 5}, {7, 9}, {3, 5}, {0, 9}, {40, 1}, {12, 5}} {
		m.continueAt(&m.cores[a.core], a.at)
	}
	for _, want := range [][2]uint64{{40, 1}, {3, 5}, {12, 5}, {63, 5}, {0, 9}, {7, 9}} {
		if c, at := m.next(); c != int(want[0]) || at != want[1] {
			t.Fatalf("popped core %d at %d, want core %d at %d", c, at, want[0], want[1])
		}
	}
	if m.armed != 0 {
		t.Fatalf("slots %b still armed after every pop", m.armed)
	}

	m.continueAt(&m.cores[5], 10)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "core 5 already has an activation pending at cycle 10") {
			t.Errorf("second activation on core 5: recovered %v", r)
		}
	}()
	m.continueAt(&m.cores[5], 11)
}

func TestEmptyProgramRejected(t *testing.T) {
	if _, err := RunProgram(&workload.Program{Name: "empty"}, DefaultConfig(), randx.New(1)); err == nil {
		t.Error("empty program should error")
	}
}

func TestBadQueueAndBarrierSpecs(t *testing.T) {
	prog := &workload.Program{
		Name:    "bad",
		Threads: [][]workload.Op{{workload.Compute(1, 1)}},
		Queues:  []workload.QueueSpec{{ID: 0, Capacity: 0}},
	}
	if _, err := RunProgram(prog, DefaultConfig(), randx.New(1)); err == nil {
		t.Error("zero-capacity queue should error")
	}
	prog2 := &workload.Program{
		Name:     "bad2",
		Threads:  [][]workload.Op{{workload.Compute(1, 1)}},
		Barriers: []workload.BarrierSpec{{ID: 0, Participants: 5}},
	}
	if _, err := RunProgram(prog2, DefaultConfig(), randx.New(1)); err == nil {
		t.Error("barrier with more participants than threads should error")
	}
}

func TestLockMutualExclusionTiming(t *testing.T) {
	// Two threads each hold lock 0 around a long compute; the total
	// runtime must be at least the sum of both critical sections (they
	// cannot overlap).
	cs := uint64(10_000)
	ops := []workload.Op{workload.Lock(0), workload.Compute(cs, cs), workload.Unlock(0)}
	prog := &workload.Program{Name: "mutex", Threads: [][]workload.Op{ops, ops}}
	cfg := DefaultConfig()
	cfg.Thermal.Enabled = false // keep compute durations exact
	res, err := RunProgram(prog, cfg, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 2*cs {
		t.Errorf("runtime %d < 2×critical section %d: mutual exclusion violated", res.Cycles, 2*cs)
	}
}

func TestBarrierSynchronizesThreads(t *testing.T) {
	// One fast and one slow thread meet at a barrier, then both compute.
	// Total runtime ≥ slow prefix + post-barrier work.
	mk := func(prefix uint64) []workload.Op {
		return []workload.Op{workload.Compute(prefix, prefix), workload.Barrier(0), workload.Compute(5_000, 5_000)}
	}
	prog := &workload.Program{
		Name:     "barrier",
		Threads:  [][]workload.Op{mk(1_000), mk(50_000)},
		Barriers: []workload.BarrierSpec{{ID: 0, Participants: 2}},
	}
	cfg := DefaultConfig()
	cfg.Thermal.Enabled = false
	res, err := RunProgram(prog, cfg, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 55_000 {
		t.Errorf("runtime %d < 55000: barrier did not hold the fast thread", res.Cycles)
	}
}

func TestMoreThreadsThanCoresCompletes(t *testing.T) {
	// ferret runs 9 threads on 4 cores; context switches must occur.
	res, err := Run("ferret", DefaultConfig(), testScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics[MetricCtxSwitches] == 0 {
		t.Error("oversubscribed run should context switch")
	}
}

func TestThermalSprintCycle(t *testing.T) {
	tm := &thermalModel{}
	tm.init(DefaultConfig().Thermal, DefaultConfig().Thermal.Ambient)
	if tm.speed() != 1 {
		t.Error("initial speed should be 1")
	}
	// Cool chip enters sprint.
	tm.update(0)
	if !tm.sprinting || tm.speed() <= 1 {
		t.Error("cool chip should sprint")
	}
	// Sustained full activity must eventually trigger the alert.
	alerted := false
	for i := 0; i < 200 && !alerted; i++ {
		tm.update(1)
		alerted = tm.alertFired
	}
	if !alerted {
		t.Error("sustained activity never fired a thermal alert")
	}
	if tm.speed() >= 1 {
		t.Error("post-alert chip should be throttled")
	}
	// Idling cools the chip back into sprint eventually.
	reentered := false
	for i := 0; i < 500 && !reentered; i++ {
		tm.update(0)
		reentered = tm.enteredSprint
	}
	if !reentered {
		t.Error("idle chip never re-entered sprint")
	}
	if tm.sprintEntries < 2 || tm.alerts < 1 {
		t.Errorf("counters: %d entries, %d alerts", tm.sprintEntries, tm.alerts)
	}
}

func TestThermalDisabled(t *testing.T) {
	tm := &thermalModel{}
	tm.init(ThermalConfig{Enabled: false}, 0)
	for i := 0; i < 100; i++ {
		tm.update(1)
	}
	if tm.speed() != 1 || tm.alerts != 0 {
		t.Error("disabled thermal model should be inert")
	}
}

func TestResultMetricLookup(t *testing.T) {
	res, err := Run("blackscholes", DefaultConfig(), testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Metric(MetricIPC); !ok {
		t.Error("known metric missing")
	}
	if _, ok := res.Metric("bogus"); ok {
		t.Error("unknown metric should report !ok")
	}
	// Cross-metric consistency.
	if got := res.Metrics[MetricRuntime]; math.Abs(got-float64(res.Cycles)/2e9) > 1e-12 {
		t.Errorf("runtime %v inconsistent with cycles %d at 2GHz", got, res.Cycles)
	}
	wantIPC := float64(res.Instructions) / float64(res.Cycles)
	if math.Abs(res.Metrics[MetricIPC]-wantIPC) > 1e-12 {
		t.Error("ipc inconsistent with instruction/cycle counts")
	}
}

func TestMaxLoadLatencyIsInteger(t *testing.T) {
	// The paper's Sec. 6.4 leans on max load latency being integer-valued
	// (it provokes BCa failures); our model reports whole cycles.
	res, err := Run("canneal", DefaultConfig(), testScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Metrics[MetricMaxLoadLat]
	if v != math.Trunc(v) || v <= 0 {
		t.Errorf("max load latency %v should be a positive integer", v)
	}
}

func ExampleRun() {
	res, err := Run("ferret", DefaultConfig(), 0.05, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Benchmark, res.Cycles > 0)
	// Output: ferret true
}

func TestDetailConsistentWithMetrics(t *testing.T) {
	res, err := Run("ferret", DefaultConfig(), testScale, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Detail
	if d.L1D.Hits+d.L1D.Misses == 0 {
		t.Error("no L1D activity recorded")
	}
	kInstr := float64(res.Instructions) / 1000
	if got := float64(d.L1D.Misses) / kInstr; math.Abs(got-res.Metrics[MetricL1DMPKI]) > 1e-9 {
		t.Errorf("detail L1D misses inconsistent with MPKI metric: %g vs %g", got, res.Metrics[MetricL1DMPKI])
	}
	if got := float64(d.L2.Misses) / kInstr; math.Abs(got-res.Metrics[MetricL2MPKI]) > 1e-9 {
		t.Errorf("detail L2 misses inconsistent with MPKI metric")
	}
	if float64(d.DRAM.Accesses) != res.Metrics[MetricMemAccesses] {
		t.Error("detail DRAM accesses inconsistent with metric")
	}
	if float64(d.CtxSwitch) != res.Metrics[MetricCtxSwitches] {
		t.Error("detail context switches inconsistent with metric")
	}
	if d.Directory.ReadMisses == 0 && d.Directory.WriteMisses == 0 {
		t.Error("directory recorded no traffic")
	}
	if d.Crossbar.Transfers == 0 {
		t.Error("crossbar recorded no transfers")
	}
	if d.Branch.Predictions == 0 || d.TLB.Lookups == 0 {
		t.Error("front-end structures recorded no activity")
	}
}

func TestStrayUnlockTolerated(t *testing.T) {
	// Unlocking a lock nobody holds is a workload bug the machine should
	// survive (real kernels tolerate it too).
	prog := &workload.Program{
		Name:    "stray-unlock",
		Threads: [][]workload.Op{{workload.Unlock(9), workload.Compute(100, 100)}},
	}
	res, err := RunProgram(prog, DefaultConfig(), randx.New(1))
	if err != nil {
		t.Fatalf("stray unlock should not fail the run: %v", err)
	}
	if res.Instructions == 0 {
		t.Error("run did not execute")
	}
}

func TestUndeclaredBarrierDefaultsToAllThreads(t *testing.T) {
	ops := []workload.Op{
		workload.Barrier(42), // never declared in Program.Barriers
		workload.Compute(10, 10),
	}
	prog := &workload.Program{Name: "implicit-barrier", Threads: [][]workload.Op{ops, ops}}
	if _, err := RunProgram(prog, DefaultConfig(), randx.New(1)); err != nil {
		t.Fatalf("undeclared barrier should default to all threads: %v", err)
	}
}

func TestUndeclaredQueueGetsUnitCapacity(t *testing.T) {
	prog := &workload.Program{
		Name:    "implicit-queue",
		Threads: [][]workload.Op{{workload.Produce(7)}, {workload.Consume(7)}},
	}
	if _, err := RunProgram(prog, DefaultConfig(), randx.New(1)); err != nil {
		t.Fatalf("undeclared queue should default to capacity 1: %v", err)
	}
}

func TestSingleThreadOnManyCores(t *testing.T) {
	prog := &workload.Program{
		Name: "solo",
		Threads: [][]workload.Op{{
			workload.Compute(5000, 5000),
			workload.Load(0x4000_0000),
			workload.Branch(0x100, true),
		}},
	}
	cfg := DefaultConfig()
	cfg.Thermal.Enabled = false
	res, err := RunProgram(prog, cfg, randx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 5000 {
		t.Errorf("runtime %d below the compute burst", res.Cycles)
	}
	if res.Metrics[MetricCtxSwitches] != 1 { // only the initial dispatch
		t.Errorf("solo thread context switches = %v", res.Metrics[MetricCtxSwitches])
	}
}

func TestEmptyThreadStreamFinishesImmediately(t *testing.T) {
	prog := &workload.Program{
		Name:    "empty-thread",
		Threads: [][]workload.Op{nil, {workload.Compute(10, 1)}},
	}
	if _, err := RunProgram(prog, DefaultConfig(), randx.New(3)); err != nil {
		t.Fatalf("empty op stream should be fine: %v", err)
	}
}

func TestProducerConsumerThroughputBound(t *testing.T) {
	// A producer that makes items every 1000 cycles and a consumer that
	// eats them in 10: total runtime is bound by the producer, and the
	// queue never deadlocks despite capacity 1.
	const items = 20
	var prodOps, consOps []workload.Op
	for i := 0; i < items; i++ {
		prodOps = append(prodOps, workload.Compute(1000, 1000), workload.Produce(0))
		consOps = append(consOps, workload.Consume(0), workload.Compute(10, 10))
	}
	prog := &workload.Program{
		Name:    "pipeline-bound",
		Threads: [][]workload.Op{prodOps, consOps},
		Queues:  []workload.QueueSpec{{ID: 0, Capacity: 1}},
	}
	cfg := DefaultConfig()
	cfg.Thermal.Enabled = false
	res, err := RunProgram(prog, cfg, randx.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < items*1000 {
		t.Errorf("runtime %d below the producer bound %d", res.Cycles, items*1000)
	}
}

func TestTraceCoversRuntime(t *testing.T) {
	cfg := DefaultConfig()
	res, err := Run("bodytrack", cfg, testScale, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Trace duration must be within one sample interval of the runtime
	// (the tracer emits per full interval plus one trailing partial).
	want := float64(res.Cycles)
	got := res.Trace.Duration()
	if got < want-2*float64(cfg.SampleInterval) || got > want+2*float64(cfg.SampleInterval) {
		t.Errorf("trace duration %g vs runtime %g cycles", got, want)
	}
	if res.Trace.Step() != float64(cfg.SampleInterval) {
		t.Errorf("trace step %g, want %d", res.Trace.Step(), cfg.SampleInterval)
	}
}

func TestHardwareConfigValid(t *testing.T) {
	if err := HardwareLikeConfig().Validate(); err != nil {
		t.Fatalf("hardware config invalid: %v", err)
	}
}

func TestGshareConfigSelectsPredictor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BPKind = "gshare"
	res, err := Run("freqmine", cfg, testScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := DefaultConfig() // bimodal
	res2, err := Run("freqmine", cfg2, testScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detail.Branch.Predictions == 0 {
		t.Fatal("gshare recorded no predictions")
	}
	if res.Metrics[MetricBranchMPKI] == res2.Metrics[MetricBranchMPKI] {
		t.Error("different predictors should yield different mispredict rates")
	}
	bad := DefaultConfig()
	bad.BPKind = "oracle"
	if err := bad.Validate(); err == nil {
		t.Error("unknown predictor kind should be rejected")
	}
}

func TestASLRMattersOnlyUnderL2Pressure(t *testing.T) {
	// Page-aligned ASLR offsets cannot move L1 set indices (one page spans
	// the whole 64-set L1D) and only shift L2 conflict patterns, so they
	// perturb timing exactly when the L2 experiences conflicts. ferret's
	// footprint fits the default 3MB L2 (no effect); a 512kB L2 thrashes
	// (effect).
	distinct := func(l2 int) int {
		cfg := DefaultConfig()
		cfg.JitterMax = -1
		cfg.Thermal.InitSpread = 0
		cfg.L2Size = l2
		seen := map[uint64]bool{}
		for seed := uint64(0); seed < 4; seed++ {
			res, err := Run("ferret", cfg, 0.3, seed)
			if err != nil {
				t.Fatal(err)
			}
			seen[res.Cycles] = true
		}
		return len(seen)
	}
	if n := distinct(3 << 20); n != 1 {
		t.Errorf("ASLR under an unpressured L2 should be invisible, got %d distinct runtimes", n)
	}
	if n := distinct(512 << 10); n < 2 {
		t.Errorf("ASLR under a thrashing L2 should perturb runtimes, got %d distinct", n)
	}
}

func TestMSHRWindowSpeedsUpMemoryBoundCode(t *testing.T) {
	run := func(mshrs int) uint64 {
		cfg := DefaultConfig()
		cfg.MSHRs = mshrs
		res, err := Run("ferret", cfg, testScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	blocking := run(1)
	ooo := run(4)
	wide := run(8)
	if ooo >= blocking {
		t.Errorf("4 MSHRs (%d cycles) should beat blocking (%d)", ooo, blocking)
	}
	if wide > ooo {
		t.Errorf("8 MSHRs (%d cycles) should not lose to 4 (%d)", wide, ooo)
	}
}

func TestMSISlowerOnPrivateReadWrite(t *testing.T) {
	// swaptions is private-data dominated with a read/write mix: MSI's
	// upgrade tax on first writes must cost cycles relative to MESI.
	run := func(proto string) uint64 {
		cfg := DefaultConfig()
		cfg.CoherenceProtocol = proto
		res, err := Run("swaptions", cfg, testScale, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	mesi := run("mesi")
	msi := run("msi")
	if msi <= mesi {
		t.Errorf("MSI (%d cycles) should be slower than MESI (%d)", msi, mesi)
	}
	bad := DefaultConfig()
	bad.CoherenceProtocol = "moesi"
	if err := bad.Validate(); err == nil {
		t.Error("unknown protocol should be rejected")
	}
}

func TestReplacementPolicyConfig(t *testing.T) {
	results := map[string]uint64{}
	for _, pol := range []string{"lru", "fifo", "random"} {
		cfg := DefaultConfig()
		cfg.ReplacementPolicy = pol
		res, err := Run("canneal", cfg, testScale, 2)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		results[pol] = res.Cycles
	}
	if results["lru"] == results["fifo"] && results["lru"] == results["random"] {
		t.Error("replacement policies should produce different timings on a thrashing workload")
	}
	bad := DefaultConfig()
	bad.ReplacementPolicy = "plru"
	if err := bad.Validate(); err == nil {
		t.Error("unknown policy should be rejected")
	}
}

// Golden determinism tripwire: these exact cycle/instruction counts anchor
// the recorded EXPERIMENTS.md campaign. Any timing-model change — however
// small — must consciously update them (and regenerate experiments_full.txt
// with `go run ./cmd/experiments -all`), never drift silently.
func TestGoldenDeterminism(t *testing.T) {
	golden := []struct {
		bench        string
		seed         uint64
		cycles       uint64
		instructions uint64
	}{
		{"ferret", 1, 221397, 22402},
		{"ferret", 2, 221499, 22402},
		{"canneal", 1, 453128, 49746},
		{"canneal", 2, 459211, 49746},
		{"swaptions", 1, 70300, 149879},
		{"swaptions", 2, 69764, 149879},
		{"dedup", 1, 121147, 9652},
		{"dedup", 2, 121496, 9652},
	}
	for _, g := range golden {
		res, err := Run(g.bench, DefaultConfig(), 0.15, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != g.cycles || res.Instructions != g.instructions {
			t.Errorf("%s seed %d: got %d cycles/%d instr, golden %d/%d — timing model changed; "+
				"update goldens and regenerate experiments_full.txt",
				g.bench, g.seed, res.Cycles, res.Instructions, g.cycles, g.instructions)
		}
	}
}

// Latency validation: with a blocking memory model (MSHRs=1), N loads to
// distinct cold blocks must cost roughly N × (DRAM latency + hierarchy
// overheads), and repeated loads to one block must cost L1-hit latency.
// This pins the timing model to its configured latencies.
func TestMemoryLatencyValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	cfg.Thermal.Enabled = false
	cfg.JitterMax = -1
	cfg.ASLRPages = 0
	cfg.CtxSwitchKernelBlocks = 0

	// The thread's instruction fetch walks a 16 KB footprint (256 blocks),
	// so the first few hundred ops pay cold I-misses. Measuring the
	// *marginal* cost between a long and a short run isolates the data
	// path with a warm I-cache.
	const base, extra = 1024, 512
	mkOps := func(count int, stride uint64) []workload.Op {
		var ops []workload.Op
		for i := 0; i < count; i++ {
			ops = append(ops, workload.Load(0x4000_0000+uint64(i)*stride))
		}
		return ops
	}

	run := func(ops []workload.Op) uint64 {
		prog := &workload.Program{Name: "latprobe", Threads: [][]workload.Op{ops}}
		res, err := RunProgram(prog, cfg, randx.New(1))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}

	marginal := func(stride uint64) float64 {
		long := run(mkOps(base+extra, stride))
		short := run(mkOps(base, stride))
		return float64(long-short) / extra
	}

	// Cold misses to distinct pages (every load also TLB-misses).
	// Expected per load: DRAM 90 + L2 16 + L1 2 + TLB walk 40 + crossbar
	// hops ≈ 150–180.
	cold := marginal(4096)
	if cold < 120 || cold > 220 {
		t.Errorf("cold-miss marginal latency %.1f cycles/load outside the plausible band", cold)
	}
	// Hot loop on one block: pure L1 hits at issue cost (~2-5 cycles).
	hot := marginal(0)
	if hot > 10 {
		t.Errorf("L1-hit marginal latency %.1f cycles/load too high", hot)
	}
	if cold < 10*hot {
		t.Errorf("cold (%.1f) vs hot (%.1f) latency ratio implausibly small", cold, hot)
	}
}

func TestPrefetcherCutsDemandL2Misses(t *testing.T) {
	// A single thread streaming sequentially through cold blocks: the
	// next-line prefetcher should convert roughly half the demand L2
	// misses into hits.
	mk := func() []workload.Op {
		var ops []workload.Op
		for i := 0; i < 600; i++ {
			ops = append(ops, workload.Load(0x4000_0000+uint64(i)*64))
		}
		return ops
	}
	run := func(prefetch bool) *Result {
		cfg := DefaultConfig()
		cfg.PrefetchNextLine = prefetch
		cfg.JitterMax = -1
		cfg.Thermal.Enabled = false
		cfg.CtxSwitchKernelBlocks = 0
		prog := &workload.Program{Name: "stream", Threads: [][]workload.Op{mk()}}
		res, err := RunProgram(prog, cfg, randx.New(1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(false)
	on := run(true)
	if on.Metrics[MetricPrefetches] == 0 {
		t.Fatal("prefetcher issued nothing")
	}
	if off.Metrics[MetricPrefetches] != 0 {
		t.Fatal("prefetch metric nonzero with prefetcher off")
	}
	if on.Cycles >= off.Cycles {
		t.Errorf("prefetching a sequential stream should be faster: %d vs %d cycles", on.Cycles, off.Cycles)
	}
	// Goldens guard the default config: prefetch off must not perturb it.
	base, err := Run("ferret", DefaultConfig(), 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles != 221397 {
		t.Errorf("default-config timing drifted: %d", base.Cycles)
	}
}
