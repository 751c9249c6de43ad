package workload

import (
	"errors"
	"fmt"

	"repro/internal/randx"
)

// This file is the public builder API for custom workloads: the same
// generators the built-in PARSEC-like profiles use, behind exported spec
// structs, so downstream users can model their own applications without
// touching this package.

// RegionSpec declares an address region a thread draws accesses from.
type RegionSpec struct {
	// Shared selects the program-wide shared mapping; otherwise the
	// thread's private mapping is used.
	Shared bool
	// SizeBytes is the region size (minimum one cache block).
	SizeBytes uint64
	// ZipfSkew skews whole-region accesses toward low addresses when > 0.
	ZipfSkew float64
	// HotFraction of accesses target a sliding hot window of HotBlocks
	// cache blocks advancing every AdvanceEvery accesses (temporal
	// locality). Zero disables the window.
	HotFraction  float64
	HotBlocks    uint64
	AdvanceEvery int
}

func (rs RegionSpec) validate() error {
	if rs.SizeBytes < 64 {
		return fmt.Errorf("workload: region size %d below one block", rs.SizeBytes)
	}
	if rs.ZipfSkew < 0 || rs.HotFraction < 0 || rs.HotFraction > 1 {
		return errors.New("workload: region skew/hot-fraction out of range")
	}
	return nil
}

// build instantiates the region for thread tid.
func (rs RegionSpec) build(tid int, r *randx.Rand) *region {
	base := uint64(SharedBase)
	if !rs.Shared {
		base = privBase(tid)
	}
	reg := newRegion(base, rs.SizeBytes, rs.ZipfSkew, r)
	if rs.HotFraction > 0 {
		reg.withLocality(rs.HotFraction, rs.HotBlocks, rs.AdvanceEvery)
	}
	return reg
}

// PipelineStageSpec declares one stage of a custom pipeline profile.
type PipelineStageSpec struct {
	// Threads run this stage in parallel, splitting its items evenly
	// (Items must be divisible by Threads).
	Threads       int
	ComputeMean   int
	ComputeJitter int
	MemOps        int
	WriteFraction float64
	SharedFrac    float64
	Branches      int
}

// PipelineSpec declares a custom pipeline: a source feeding Items through
// the stages into a sink over bounded queues.
type PipelineSpec struct {
	Items         int
	QueueCapacity int
	Shared        RegionSpec // stage-shared data (Shared flag forced on)
	Private       RegionSpec // per-thread buffers (Shared flag forced off)
	Stages        []PipelineStageSpec
}

func (spec PipelineSpec) validate() error {
	if spec.Items < 1 {
		return errors.New("workload: pipeline needs at least one item")
	}
	if spec.QueueCapacity < 1 {
		return errors.New("workload: queue capacity must be ≥ 1")
	}
	if len(spec.Stages) < 1 {
		return errors.New("workload: pipeline needs at least one stage")
	}
	for i, st := range spec.Stages {
		if st.Threads < 1 {
			return fmt.Errorf("workload: stage %d needs threads", i)
		}
		if spec.Items%st.Threads != 0 {
			return fmt.Errorf("workload: items %d not divisible by stage %d's %d threads",
				spec.Items, i, st.Threads)
		}
		if st.ComputeMean < 1 || st.MemOps < 0 {
			return fmt.Errorf("workload: stage %d has invalid op counts", i)
		}
	}
	if err := spec.Shared.validate(); err != nil {
		return err
	}
	return spec.Private.validate()
}

// NewPipelineProfile builds a custom pipeline workload profile with a
// single-threaded source and sink around the declared stages, exactly the
// structure of the built-in ferret/dedup profiles. The scale factor
// multiplies Items (floored so stage splits stay exact).
func NewPipelineProfile(name string, spec PipelineSpec) (Profile, error) {
	if name == "" {
		return Profile{}, errors.New("workload: empty profile name")
	}
	if err := spec.validate(); err != nil {
		return Profile{}, err
	}
	// Divisibility must survive scaling: use the LCM-ish simple approach
	// of scaling then rounding down to a multiple of every thread count.
	mult := 1
	for _, st := range spec.Stages {
		mult = lcm(mult, st.Threads)
	}
	return Profile{
		Name: name,
		Build: func(scale float64, r *randx.Rand) *Program {
			items := scaleCount(spec.Items, scale) / mult * mult
			if items < mult {
				items = mult
			}
			prog := &Program{Name: name}
			sh := spec.Shared
			sh.Shared = true
			shared := sh.build(0, r.Split(1000))
			nq := len(spec.Stages) + 1
			for q := 0; q < nq; q++ {
				prog.Queues = append(prog.Queues, QueueSpec{ID: q, Capacity: spec.QueueCapacity})
			}
			tid := 0
			add := func(p pipelineStageParams) {
				p.pcBase = 0xD000 + uint64(tid)*0x100
				pr := spec.Private
				pr.Shared = false
				p.private = pr.build(tid, r.Split(uint64(500+tid)))
				p.shared = shared
				prog.Threads = append(prog.Threads, pipelineStageThread(p, r.Split(uint64(tid))))
				tid++
			}
			// Source.
			add(pipelineStageParams{items: items, inQueue: -1, outQueue: 0,
				computeMean: 50, computeJitter: 10, memOps: 4, writeFrac: 0.2, sharedFrac: 0.1, branches: 2})
			for i, st := range spec.Stages {
				for k := 0; k < st.Threads; k++ {
					add(pipelineStageParams{
						items: items / st.Threads, inQueue: i, outQueue: i + 1,
						computeMean: st.ComputeMean, computeJitter: st.ComputeJitter,
						memOps: st.MemOps, writeFrac: st.WriteFraction,
						sharedFrac: st.SharedFrac, branches: st.Branches,
					})
				}
			}
			// Sink.
			add(pipelineStageParams{items: items, inQueue: nq - 1, outQueue: -1,
				computeMean: 40, computeJitter: 8, memOps: 3, writeFrac: 0.6, sharedFrac: 0.1, branches: 2})
			return prog.drawShared(shared)
		},
	}, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
