package sim

import (
	"math"
	"testing"

	"repro/internal/sim/cache"
	"repro/internal/sim/cpu"
)

// traceMachine builds a minimal machine for exercising the tracer directly:
// real caches and TLBs (so miss counters behave), a disabled thermal model,
// and counters the test sets by hand.
func traceMachine(t *testing.T, cores int) *machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cores = cores
	cfg.Thermal.Enabled = false
	m := &machine{cfg: cfg}
	for i := 0; i < cores; i++ {
		l1, err := cache.New(cache.Config{SizeBytes: 4096, Ways: 4, BlockSize: 64}, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.l1d = append(m.l1d, l1)
		tlb, err := cpu.NewTLB(16, 4096)
		if err != nil {
			t.Fatal(err)
		}
		m.tlb = append(m.tlb, tlb)
	}
	l2, err := cache.New(cache.Config{SizeBytes: 64 * 1024, Ways: 8, BlockSize: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.l2 = l2
	m.thermal = &thermalModel{}
	m.thermal.init(cfg.Thermal, cfg.Thermal.Ambient)
	return m
}

// TestTracerIntervalDeltas pins the core contract: each sample reports the
// delta since the previous boundary, computed from counter snapshots, not
// cumulative totals.
func TestTracerIntervalDeltas(t *testing.T) {
	m := traceMachine(t, 2)
	tr := &tracer{}
	tr.init(1000, m)

	// Interval 1: 500 instructions, 10 cold L1D misses, 4 L2 misses,
	// 3 TLB misses, 60 cycles of mispredict cost, both cores half busy.
	m.instructions = 500
	for i := 0; i < 10; i++ {
		m.l1d[0].Access(uint64(i)*64, false) // cold lines: all miss
	}
	for i := 0; i < 4; i++ {
		m.l2.Access(uint64(i)*64, false)
	}
	for i := 0; i < 3; i++ {
		m.tlb[0].Lookup(uint64(i) * 4096)
	}
	m.mispredictCost = 60
	m.busyCycles = 1000
	tr.advance(1000)

	// Interval 2: 250 more instructions, 5 more L1D misses (fresh lines),
	// no new L2/TLB misses, 40 more mispredict cycles.
	m.instructions = 750
	for i := 100; i < 105; i++ {
		m.l1d[1].Access(uint64(i)*64, false)
	}
	m.mispredictCost = 100
	m.busyCycles = 1500
	tr.advance(2000)

	ipc := tr.signals["ipc"]
	if len(ipc) != 2 {
		t.Fatalf("got %d samples, want 2", len(ipc))
	}
	approx := func(name string, i int, want float64) {
		t.Helper()
		got := tr.signals[name][i]
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s[%d] = %g, want %g", name, i, got, want)
		}
	}
	// ipc = interval instructions / interval cycles.
	approx("ipc", 0, 500.0/1000)
	approx("ipc", 1, 250.0/1000)
	// mpki = interval misses per 1000 interval instructions.
	approx("l1d_mpki", 0, 10.0/500*1000)
	approx("l1d_mpki", 1, 5.0/250*1000)
	approx("l2_mpki", 0, 4.0/500*1000)
	approx("l2_mpki", 1, 0)
	approx("tlb_miss", 0, 3)
	approx("tlb_miss", 1, 0)
	// mispredict = interval mispredict cycles / (interval × cores).
	approx("mispredict", 0, 60.0/(1000*2))
	approx("mispredict", 1, 40.0/(1000*2))
}

// TestTracerZeroInstructionInterval: mpki is defined as 0 when no
// instructions retired in the interval (no division by zero).
func TestTracerZeroInstructionInterval(t *testing.T) {
	m := traceMachine(t, 1)
	tr := &tracer{}
	tr.init(100, m)
	m.l1d[0].Access(0, false) // a miss with zero instructions
	tr.advance(100)
	for _, name := range []string{"ipc", "l1d_mpki", "l2_mpki"} {
		if got := tr.signals[name][0]; got != 0 {
			t.Errorf("%s = %g with zero instructions, want 0", name, got)
		}
	}
}

// TestTracerBoundaries: advance emits one sample per SampleInterval multiple
// crossed, and a whole-multiple advance lands exactly on the boundary.
func TestTracerBoundaries(t *testing.T) {
	m := traceMachine(t, 1)
	tr := &tracer{}
	tr.init(1000, m)

	tr.advance(999) // before the first boundary: nothing
	if n := len(tr.signals["ipc"]); n != 0 {
		t.Fatalf("sampled %d times before first boundary", n)
	}
	tr.advance(1000) // exactly on the boundary: one sample
	if n := len(tr.signals["ipc"]); n != 1 {
		t.Fatalf("got %d samples at cycle 1000, want 1", n)
	}
	tr.advance(3500) // crosses 2000 and 3000: two more samples
	if n := len(tr.signals["ipc"]); n != 3 {
		t.Fatalf("got %d samples at cycle 3500, want 3", n)
	}
	if tr.nextAt != 4000 {
		t.Errorf("nextAt = %d, want 4000", tr.nextAt)
	}

	// finish keeps a trailing partial strictly longer than interval/2
	// and drops tails at or below it.
	tr.finish(3501) // 501 cycles past 3000: kept
	if n := len(tr.signals["ipc"]); n != 4 {
		t.Errorf("finish dropped a long tail: %d samples, want 4", n)
	}

	m2 := traceMachine(t, 1)
	tr2 := &tracer{}
	tr2.init(1000, m2)
	tr2.advance(2000)
	tr2.finish(2500) // 500-cycle tail, exactly interval/2: dropped
	if n := len(tr2.signals["ipc"]); n != 2 {
		t.Errorf("half-interval tail not dropped: %d samples, want 2", n)
	}

	m3 := traceMachine(t, 1)
	tr3 := &tracer{}
	tr3.init(1000, m3)
	tr3.finish(300) // run shorter than any interval still yields one sample
	if n := len(tr3.signals["ipc"]); n != 1 {
		t.Errorf("empty trace after finish: %d samples, want 1", n)
	}
}

// TestTracerAllSignalsPopulated runs a real simulation and checks every
// signal in traceSignalNames is present with full length, and that the
// trace step matches SampleInterval.
func TestTracerAllSignalsPopulated(t *testing.T) {
	cfg := DefaultConfig()
	res, err := Run("swaptions", cfg, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	trc := res.Trace
	if trc.Len() == 0 {
		t.Fatal("empty trace")
	}
	if got := trc.Step(); got != float64(cfg.SampleInterval) {
		t.Errorf("trace step %g, want %d", got, cfg.SampleInterval)
	}
	// Sample count matches the boundaries crossed, plus at most one
	// trailing partial interval (tails < interval/2 are dropped).
	full := int(res.Cycles / cfg.SampleInterval)
	if n := trc.Len(); n != full && n != full+1 {
		t.Errorf("trace has %d samples for %d cycles (interval %d), want %d or %d",
			n, res.Cycles, cfg.SampleInterval, full, full+1)
	}
	for _, name := range traceSignalNames {
		if !trc.Has(name) {
			t.Errorf("trace missing signal %q", name)
			continue
		}
		vs, err := trc.Signal(name)
		if err != nil {
			t.Errorf("signal %q: %v", name, err)
			continue
		}
		if len(vs) != trc.Len() {
			t.Errorf("signal %q has %d samples, trace has %d", name, len(vs), trc.Len())
		}
	}
	if len(trc.Names()) != len(traceSignalNames) {
		t.Errorf("trace has %d signals, want %d", len(trc.Names()), len(traceSignalNames))
	}
}
