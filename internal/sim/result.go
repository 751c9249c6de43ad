package sim

import (
	"repro/internal/sim/cache"
	"repro/internal/sim/coherence"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
	"repro/internal/sim/noc"
	"repro/internal/stl"
)

// Metric name constants — the keys of Result.Metrics. These are the
// metrics the paper's evaluation sweeps (Figs. 6–15).
const (
	MetricRuntime       = "runtime_s"        // region-of-interest runtime in seconds
	MetricCycles        = "cycles"           // total cycles
	MetricInstructions  = "instructions"     // total instructions
	MetricIPC           = "ipc"              // aggregate instructions per cycle
	MetricL1DMPKI       = "l1d_mpki"         // L1D misses per 1k instructions
	MetricL1IMPKI       = "l1i_mpki"         // L1I misses per 1k instructions
	MetricL2MPKI        = "l2_mpki"          // L2 misses per 1k instructions
	MetricL2MissRate    = "l2_miss_rate"     // L2 misses / L2 accesses
	MetricBranchMPKI    = "branch_mpki"      // mispredicts per 1k instructions
	MetricTLBMPKI       = "tlb_mpki"         // TLB misses per 1k instructions
	MetricMaxLoadLat    = "max_load_latency" // worst load latency (integer cycles)
	MetricAvgLoadLat    = "avg_load_latency" // mean load latency in cycles
	MetricSyncWaitFrac  = "sync_wait_frac"   // fraction of core-cycles blocked on sync
	MetricMemAccesses   = "mem_accesses"     // DRAM accesses
	MetricCtxSwitches   = "ctx_switches"     // scheduler context switches
	MetricSprintEntries = "sprint_entries"   // sprint-state entries
	MetricPrefetches    = "prefetches"       // next-line prefetches issued
	MetricThermalAlerts = "thermal_alerts"   // thermal alerts fired
)

// Detail carries per-component event counters for one execution — the
// breakdown a simulator user reads when a headline metric looks off.
type Detail struct {
	L1D        cache.Stats // summed over cores
	L1I        cache.Stats
	L2         cache.Stats
	Directory  coherence.Stats
	Crossbar   noc.Stats
	DRAM       mem.Stats
	Branch     cpu.BranchStats // summed over cores
	TLB        cpu.TLBStats
	CtxSwitch  uint64
	Migrations uint64
	Preempts   uint64
	OSNoise    uint64
}

// Result is one execution's outcome: scalar end-of-run metrics plus the
// sampled trace for temporal properties and the per-component detail.
type Result struct {
	Benchmark    string
	Cycles       uint64
	Instructions uint64
	Metrics      map[string]float64
	Trace        *stl.Trace
	Detail       Detail
}

// Metric returns a metric value, with ok=false for unknown names.
func (r *Result) Metric(name string) (float64, bool) {
	v, ok := r.Metrics[name]
	return v, ok
}

// result assembles the machine's counters into a Result.
func (m *machine) result() *Result {
	cycles := m.now
	if cycles == 0 {
		cycles = 1
	}
	instr := m.instructions
	kInstr := float64(instr) / 1000
	if kInstr == 0 {
		kInstr = 1
	}

	detail := Detail{
		L2:         m.l2.Stats(),
		Directory:  m.dir.Stats(),
		Crossbar:   m.xbar.Stats(),
		DRAM:       m.dram.Stats(),
		CtxSwitch:  m.ctxSwitches,
		Migrations: m.migrations,
		Preempts:   m.preemptions,
		OSNoise:    m.osNoiseEvents,
	}
	for c := 0; c < m.cfg.Cores; c++ {
		detail.L1D = addCacheStats(detail.L1D, m.l1d[c].Stats())
		detail.L1I = addCacheStats(detail.L1I, m.l1i[c].Stats())
		bs := m.bp[c].Stats()
		detail.Branch.Predictions += bs.Predictions
		detail.Branch.Mispredicts += bs.Mispredicts
		ts := m.tlb[c].Stats()
		detail.TLB.Lookups += ts.Lookups
		detail.TLB.Misses += ts.Misses
	}
	l2 := detail.L2
	l2Acc := l2.Hits + l2.Misses
	if l2Acc == 0 {
		l2Acc = 1
	}
	avgLoad := 0.0
	if m.loads > 0 {
		avgLoad = float64(m.loadLatencySum) / float64(m.loads)
	}

	metrics := map[string]float64{
		MetricRuntime:       float64(cycles) / (m.cfg.FreqGHz * 1e9),
		MetricCycles:        float64(cycles),
		MetricInstructions:  float64(instr),
		MetricIPC:           float64(instr) / float64(cycles),
		MetricL1DMPKI:       float64(detail.L1D.Misses) / kInstr,
		MetricL1IMPKI:       float64(detail.L1I.Misses) / kInstr,
		MetricL2MPKI:        float64(l2.Misses) / kInstr,
		MetricL2MissRate:    float64(l2.Misses) / float64(l2Acc),
		MetricBranchMPKI:    float64(detail.Branch.Mispredicts) / kInstr,
		MetricTLBMPKI:       float64(detail.TLB.Misses) / kInstr,
		MetricMaxLoadLat:    float64(m.loadLatencyMax), // integer-valued by construction
		MetricAvgLoadLat:    avgLoad,
		MetricSyncWaitFrac:  float64(m.syncWaitCycles) / (float64(cycles) * float64(m.cfg.Cores)),
		MetricMemAccesses:   float64(detail.DRAM.Accesses),
		MetricCtxSwitches:   float64(m.ctxSwitches),
		MetricSprintEntries: float64(m.thermal.sprintEntries),
		MetricPrefetches:    float64(m.prefetches),
		MetricThermalAlerts: float64(m.thermal.alerts),
	}

	tr, err := m.tracer.trace()
	if err != nil {
		// The tracer only fails on internal length mismatches, which would
		// be a bug; surface it as an empty trace rather than panicking.
		tr = nil
	}
	return &Result{
		Benchmark:    m.prog.Name,
		Cycles:       cycles,
		Instructions: instr,
		Metrics:      metrics,
		Trace:        tr,
		Detail:       detail,
	}
}

func addCacheStats(a, b cache.Stats) cache.Stats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	a.Writebacks += b.Writebacks
	return a
}
