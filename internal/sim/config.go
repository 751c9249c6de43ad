// Package sim is the multicore processor simulator substrate: the
// replacement for the paper's gem5 v22.1 + Ruby setup (see DESIGN.md for
// the substitution argument). It executes the synthetic multithreaded
// programs of internal/workload on a timing model of the Table 2 system —
// four out-of-order-class x86 cores with private L1s, a shared inclusive
// L2 with a MESI directory, a crossbar interconnect with 16-byte links,
// and 90-cycle DRAM — with the paper's variability injection (uniform 0–4
// cycle jitter on memory accesses) plus optional OS-noise and colocation
// effects for "real machine" populations (Fig. 1).
//
// Each run is deterministic for its seed: workload structure, DRAM jitter,
// scheduling noise and thermal behaviour all derive from split substreams
// of the run seed, which is the property SPA's replicable campaigns
// require (Sec. 5.2).
package sim

import (
	"fmt"
	"math"
)

// Config describes the simulated system. DefaultConfig reproduces Table 2.
type Config struct {
	// Cores is the number of x86-class cores (Table 2: 4).
	Cores int
	// FreqGHz converts cycles to seconds for the runtime metric.
	FreqGHz float64

	// L1I/L1D/L2 geometry (Table 2: I 32KB/2-way, D 32KB/8-way,
	// shared inclusive L2 3MB/16-way, 64B blocks).
	L1ISize, L1IWays int
	L1DSize, L1DWays int
	L2Size, L2Ways   int
	BlockSize        int

	// Latencies in cycles (Table 2: L1 2-cycle, L2 16-cycle, memory
	// 90-cycle).
	L1Latency  uint64
	L2Latency  uint64
	MemLatency uint64

	// ReplacementPolicy selects the cache replacement policy for every
	// cache level: "lru" (default, Table 2's model), "fifo" or "random".
	ReplacementPolicy string

	// CoherenceProtocol selects "mesi" (default, Table 2) or "msi"
	// (the protocol ablation: no Exclusive state, so private
	// read-then-write pays an upgrade transaction).
	CoherenceProtocol string

	// PrefetchNextLine enables a simple next-line prefetcher: every L1
	// demand miss also pulls the following block into the shared L2, off
	// the critical path. Off by default (the Table 2 system model and the
	// recorded experiment campaign run without it); the prefetcher
	// ablation turns it on.
	PrefetchNextLine bool

	// MSHRs is the per-core bound on outstanding memory accesses — the
	// out-of-order core approximation: loads and stores issue without
	// blocking until the window fills, and synchronization operations
	// fence (drain) the window. 1 reverts to a blocking in-order memory
	// model. Value dependencies inside the window are not modeled.
	MSHRs int

	// JitterMax is the inclusive bound of the uniform random latency added
	// to each memory access — the paper's variability injection (0–4).
	// Zero or negative disables injection (the ablation's deterministic
	// mode).
	JitterMax int

	// L2Banks is the number of L2 banks (crossbar output ports).
	L2Banks int
	// NocHopLatency is the crossbar base traversal latency.
	NocHopLatency uint64
	// LinkBytes is the crossbar flit size (Table 2: 16B links).
	LinkBytes int

	// Front-end structures. BPKind selects the branch predictor's
	// history: "gshare" keeps BPHistoryBits of global history, and
	// "bimodal" (the default) keeps none.
	BPKind            string
	BPEntries         int
	BPHistoryBits     uint
	MispredictPenalty uint64
	TLBEntries        int
	PageSize          int
	TLBWalkLatency    uint64

	// Scheduling.
	SchedQuantum    uint64
	CtxSwitchCost   uint64
	MigrationFlush  float64 // fraction of L1D lost when a thread migrates
	LockLatency     uint64  // uncontended acquire/transfer cost
	UnlockLatency   uint64
	QueueOpLatency  uint64
	BarrierLatency  uint64
	InvalidateCost  uint64 // extra cycles when a write invalidates sharers
	OwnerForwardFee uint64 // extra cycles when a Modified copy is forwarded

	// OS noise and colocation model "real machine" variability (Fig. 1).
	// OSNoiseRate is the per-compute-op probability of a kernel
	// preemption; OSNoiseCycles its mean cost. ColocationProb is the
	// per-run probability that a co-located process slows ColocCores
	// cores by ColocationFactor for the whole run.
	OSNoiseRate      float64
	OSNoiseCycles    uint64
	ColocationProb   float64
	ColocationFactor float64
	ColocCores       int

	// Thermal/sprinting model (Table 1 template 8's example).
	Thermal ThermalConfig

	// CtxSwitchKernelBlocks is the number of kernel cache blocks streamed
	// through the L2 on each context switch (full-system pollution).
	CtxSwitchKernelBlocks int

	// ASLRPages is the span (in pages) of the per-run, per-thread random
	// base-address offset, modeling address-space layout randomization —
	// one of the variability origins the paper cites (program layout /
	// linking order [31]). Zero disables it. Offsets shift cache-set
	// mappings, so conflict-miss counts vary at run granularity.
	ASLRPages int

	// SampleInterval is the trace sampling period in cycles.
	SampleInterval uint64
	// MaxCycles aborts runaway simulations.
	MaxCycles uint64
}

// ThermalConfig parameterizes the sprint/thermal state machine.
type ThermalConfig struct {
	Enabled     bool
	Ambient     float64 // idle-equilibrium temperature (°C)
	HeatRate    float64 // °C per sample at full activity
	CoolRate    float64 // fractional return toward ambient per sample
	SprintEnter float64 // sprint allowed below this temperature
	AlertTemp   float64 // thermal alert above this temperature
	SprintBoost float64 // speed multiplier while sprinting
	ThrottleDip float64 // speed multiplier after an alert, until cooled
	// InitSpread is the span of the per-run random initial temperature
	// above Ambient — the thermal analogue of the paper's "hardware state
	// when the program begins" variability origin (Sec. 2.1). It shifts
	// how soon the first alert fires, quantizing runs into sprint/alert
	// count modes on both sides of the typical run.
	InitSpread float64
}

// DefaultConfig returns the Table 2 system with the paper's variability
// injection enabled.
func DefaultConfig() Config {
	return Config{
		Cores:   4,
		FreqGHz: 2.0,

		L1ISize: 32 * 1024, L1IWays: 2,
		L1DSize: 32 * 1024, L1DWays: 8,
		L2Size: 3 * 1024 * 1024, L2Ways: 16,
		BlockSize: 64,

		ReplacementPolicy: "lru",
		CoherenceProtocol: "mesi",

		L1Latency:  2,
		L2Latency:  16,
		MemLatency: 90,
		MSHRs:      4,
		JitterMax:  4,

		L2Banks:       4,
		NocHopLatency: 2,
		LinkBytes:     16,

		BPKind:            "bimodal",
		BPEntries:         1024,
		BPHistoryBits:     8,
		MispredictPenalty: 12,
		TLBEntries:        64,
		PageSize:          4096,
		TLBWalkLatency:    40,

		SchedQuantum:    50_000,
		CtxSwitchCost:   1_500,
		MigrationFlush:  0.6,
		LockLatency:     24,
		UnlockLatency:   8,
		QueueOpLatency:  30,
		BarrierLatency:  40,
		InvalidateCost:  12,
		OwnerForwardFee: 20,

		CtxSwitchKernelBlocks: 24,
		ASLRPages:             512,

		Thermal: ThermalConfig{
			Enabled:     true,
			Ambient:     45,
			HeatRate:    5,
			CoolRate:    0.1,
			SprintEnter: 55,
			AlertTemp:   78,
			SprintBoost: 1.25,
			ThrottleDip: 0.65,
			InitSpread:  26,
		},

		SampleInterval: 20_000,
		MaxCycles:      2_000_000_000,
	}
}

// HardwareLikeConfig layers the OS-noise and colocation effects on top of
// the default system, producing "real machine" populations like Fig. 1's
// bimodal ferret runtimes: most runs are clean, but a colocated process
// occasionally steals capacity for a whole run.
func HardwareLikeConfig() Config {
	cfg := DefaultConfig()
	cfg.OSNoiseRate = 0.002
	cfg.OSNoiseCycles = 8_000
	cfg.ColocationProb = 0.2
	cfg.ColocationFactor = 0.38
	cfg.ColocCores = 2
	return cfg
}

// VariantConfig returns a named system variant: "default" (or ""),
// "hardware" (HardwareLikeConfig), or the Fig. 4 pair "l2half" and
// "l2double" with a 512 kB and a 1 MB L2.
func VariantConfig(name string) (Config, error) {
	cfg := DefaultConfig()
	switch name {
	case "", "default":
	case "hardware":
		cfg = HardwareLikeConfig()
	case "l2half":
		cfg.L2Size = 512 * 1024
	case "l2double":
		cfg.L2Size = 1024 * 1024
	default:
		return Config{}, fmt.Errorf("sim: unknown variant %q (want default, hardware, l2half or l2double)", name)
	}
	return cfg, nil
}

// Validate checks internal consistency. A Config also arrives in a
// worker's run_chunk frame and from simrun's flags, so Validate bounds
// every field that sizes an allocation or a per-run loop, far above
// Table 2's values, and refuses non-finite floats.
func (c Config) Validate() error {
	for _, f := range []struct {
		name     string
		v        float64
		fraction bool
	}{
		{"frequency", c.FreqGHz, false}, {"migration flush", c.MigrationFlush, true},
		{"OS noise rate", c.OSNoiseRate, true}, {"colocation probability", c.ColocationProb, true},
		{"colocation factor", c.ColocationFactor, false}, {"ambient", c.Thermal.Ambient, false},
		{"heat rate", c.Thermal.HeatRate, false}, {"cool rate", c.Thermal.CoolRate, true},
		{"sprint enter", c.Thermal.SprintEnter, false}, {"alert temperature", c.Thermal.AlertTemp, false},
		{"sprint boost", c.Thermal.SprintBoost, false}, {"throttle dip", c.Thermal.ThrottleDip, false},
		{"initial spread", c.Thermal.InitSpread, false},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.fraction && (f.v < 0 || f.v > 1) {
			return fmt.Errorf("sim: %s %v not finite or, for a fraction, outside [0,1]", f.name, f.v)
		}
	}
	switch {
	case c.Cores <= 0 || c.Cores > 64:
		return fmt.Errorf("sim: cores %d outside 1..64", c.Cores)
	case c.FreqGHz <= 0:
		return fmt.Errorf("sim: non-positive frequency")
	// Each cache holds 16 bytes of tag and stamp per block, and every
	// access scans one set's ways. With blocks of 16 bytes or more, the
	// caches of 64 cores take at most 192 MiB.
	case c.BlockSize < 16 || c.BlockSize > 4096 || c.BlockSize&(c.BlockSize-1) != 0:
		return fmt.Errorf("sim: block size %d not a power of two in [16, 4096]", c.BlockSize)
	case c.L1ISize <= 0 || c.L1ISize > 1<<20 || c.L1DSize <= 0 || c.L1DSize > 1<<20:
		return fmt.Errorf("sim: L1 sizes %d/%d outside (0, 1 MiB]", c.L1ISize, c.L1DSize)
	case c.L2Size <= 0 || c.L2Size > 1<<26:
		return fmt.Errorf("sim: L2 size %d outside (0, 64 MiB]", c.L2Size)
	case c.L1IWays < 1 || c.L1IWays > 64 || c.L1DWays < 1 || c.L1DWays > 64 || c.L2Ways < 1 || c.L2Ways > 64:
		return fmt.Errorf("sim: ways %d/%d/%d outside 1..64", c.L1IWays, c.L1DWays, c.L2Ways)
	// A page holds whole blocks; 1 GiB is the largest x86 page.
	case c.PageSize < c.BlockSize || c.PageSize > 1<<30 || c.PageSize&(c.PageSize-1) != 0:
		return fmt.Errorf("sim: page size %d not a power of two in [block size, 1 GiB]", c.PageSize)
	// The predictor's table doubles up to BPEntries one byte each (past
	// 2^62 the doubling overflows and never ends), and a gshare history
	// needs no more bits than the largest table's index.
	case c.BPEntries < 1 || c.BPEntries > 1<<20 || c.BPHistoryBits > 20:
		return fmt.Errorf("sim: predictor of %d entries, %d history bits outside 1..2^20, 0..20", c.BPEntries, c.BPHistoryBits)
	// Each core's TLB takes about 40 bytes per entry.
	case c.TLBEntries < 1 || c.TLBEntries > 1<<14:
		return fmt.Errorf("sim: TLB entries %d outside 1..16384", c.TLBEntries)
	// The crossbar keeps one output port per bank, and a block crosses a
	// link in BlockSize/LinkBytes flits.
	case c.L2Banks <= 0 || c.L2Banks > 64:
		return fmt.Errorf("sim: L2 banks %d outside 1..64", c.L2Banks)
	case c.LinkBytes < 1 || c.LinkBytes > c.BlockSize:
		return fmt.Errorf("sim: link width %d outside [1, block size]", c.LinkBytes)
	// A full window is scanned on every access, and each context switch
	// streams CtxSwitchKernelBlocks blocks through the L2.
	case c.MSHRs < 1 || c.MSHRs > 256:
		return fmt.Errorf("sim: MSHRs %d outside 1..256", c.MSHRs)
	case c.CtxSwitchKernelBlocks < 0 || c.CtxSwitchKernelBlocks > 1<<16:
		return fmt.Errorf("sim: kernel blocks per context switch %d outside 0..65536", c.CtxSwitchKernelBlocks)
	// The trace grows by one value per signal every SampleInterval cycles
	// until MaxCycles: at most 2^20 samples, 72 MiB.
	case c.SampleInterval == 0 || c.MaxCycles/c.SampleInterval > 1<<20:
		return fmt.Errorf("sim: %d cycles sampled every %d exceed 2^20 trace samples", c.MaxCycles, c.SampleInterval)
	case c.MaxCycles == 0:
		return fmt.Errorf("sim: zero cycle budget")
	case c.BPKind != "" && c.BPKind != "bimodal" && c.BPKind != "gshare":
		return fmt.Errorf("sim: unknown branch predictor %q", c.BPKind)
	case c.CoherenceProtocol != "" && c.CoherenceProtocol != "mesi" && c.CoherenceProtocol != "msi":
		return fmt.Errorf("sim: unknown coherence protocol %q", c.CoherenceProtocol)
	case c.ReplacementPolicy != "" && c.ReplacementPolicy != "lru" &&
		c.ReplacementPolicy != "fifo" && c.ReplacementPolicy != "random":
		return fmt.Errorf("sim: unknown replacement policy %q", c.ReplacementPolicy)
	}
	return nil
}
