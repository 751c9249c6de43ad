// Package mem models main memory (Table 2: 3 GB, 90-cycle access) and hosts
// the paper's variability injection point. Following Alameldeen & Wood [3]
// and the paper's Sec. 5.2, each access can receive a small uniform random
// extra latency (0–4 cycles by default), drawn from a seeded per-run stream:
// enough to perturb thread interleavings while keeping each run
// deterministic for its seed. A zero bound injects nothing, the ablation's
// deterministic case; Gaussian scheduler noise is applied elsewhere.
package mem

import (
	"fmt"

	"repro/internal/randx"
)

// Config sizes the memory model.
type Config struct {
	// BaseLatency is the unloaded access latency in cycles (Table 2: 90).
	BaseLatency uint64
	// JitterMax is the inclusive upper bound of the uniform extra latency
	// drawn for each access; 0 draws none.
	JitterMax int
}

// The channel geometry. Accesses serialize per channel, modeling
// bandwidth contention: each occupies its channel for burstCycles.
const (
	channels    = 2
	burstCycles = 4
)

// DRAM is the main-memory timing model.
type DRAM struct {
	cfg      Config
	rng      *randx.Rand
	chanBusy [channels]uint64
	stats    Stats
}

// Stats counts memory traffic.
type Stats struct {
	Accesses      uint64
	StallCycles   uint64 // cycles spent queueing on busy channels
	JitterCycles  uint64 // total injected variability
	MaxAccessTime uint64 // worst end-to-end access latency observed
}

// New builds a DRAM model. The rng must be a dedicated stream for this
// component (split from the run seed) so injection is reproducible.
func New(cfg Config, rng *randx.Rand) (*DRAM, error) {
	if cfg.BaseLatency == 0 {
		return nil, fmt.Errorf("mem: zero base latency")
	}
	if cfg.JitterMax < 0 {
		return nil, fmt.Errorf("mem: negative jitter bound %d", cfg.JitterMax)
	}
	if rng == nil {
		return nil, fmt.Errorf("mem: nil rng")
	}
	return &DRAM{cfg: cfg, rng: rng}, nil
}

// Reset clears channel occupancies and counters and installs a fresh rng
// stream, returning the model to its post-New state for the next run. The
// configuration is retained.
func (d *DRAM) Reset(rng *randx.Rand) {
	d.chanBusy = [channels]uint64{}
	d.rng = rng
	d.stats = Stats{}
}

// Access schedules a memory access to addr issued at cycle now and returns
// the completion cycle: queueing on the addr-mapped channel, the base
// latency, and the injected jitter.
func (d *DRAM) Access(addr uint64, now uint64) uint64 {
	ch := (addr >> 6) % channels
	start := now
	if d.chanBusy[ch] > start {
		start = d.chanBusy[ch]
	}
	d.stats.StallCycles += start - now
	lat := d.cfg.BaseLatency
	if d.cfg.JitterMax > 0 {
		j := uint64(d.rng.UniformInt(0, d.cfg.JitterMax))
		lat += j
		d.stats.JitterCycles += j
	}
	d.chanBusy[ch] = start + burstCycles
	done := start + lat
	d.stats.Accesses++
	if total := done - now; total > d.stats.MaxAccessTime {
		d.stats.MaxAccessTime = total
	}
	return done
}

// Stats returns a copy of the counters.
func (d *DRAM) Stats() Stats { return d.stats }
