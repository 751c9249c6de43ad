package workload

import (
	"errors"
	"fmt"
	"slices"

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

// build instantiates the region for thread tid, drawing from r.
func (rs RegionSpec) build(tid int, r *randx.Rand) *region {
	base := uint64(SharedBase)
	if !rs.Shared {
		base = privBase(tid)
	}
	reg := &region{
		base: base, size: rs.SizeBytes, r: r, shared: rs.Shared,
		hotFrac: rs.HotFraction, hotBlocks: rs.HotBlocks, advanceEvery: rs.AdvanceEvery,
	}
	if rs.ZipfSkew > 0 {
		reg.zipf = randx.NewZipf(r, max(int(rs.SizeBytes/blockBytes), 1), rs.ZipfSkew)
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
// multiplies Items, floored to a multiple of every stage's thread count
// and to at least 4 items.
func NewPipelineProfile(name string, spec PipelineSpec) (Profile, error) {
	if name == "" {
		return Profile{}, errors.New("workload: empty profile name")
	}
	if err := spec.validate(); err != nil {
		return Profile{}, err
	}
	source := PipelineStageSpec{Threads: 1, ComputeMean: 50, ComputeJitter: 10, MemOps: 4, WriteFraction: 0.2, SharedFrac: 0.1, Branches: 2}
	sink := PipelineStageSpec{Threads: 1, ComputeMean: 40, ComputeJitter: 8, MemOps: 3, WriteFraction: 0.6, SharedFrac: 0.1, Branches: 2}
	spec.Stages = slices.Concat([]PipelineStageSpec{source}, spec.Stages, []PipelineStageSpec{sink})
	return pipeline(name, 0xD000, spec), nil
}

// minItems is the fewest items a pipeline processes, rounded up to a
// multiple of its stages' thread counts. It is ferret's floor, where the
// thread counts alone would allow 2.
const minItems = 4

// pipeline assembles a pipeline profile: spec.Stages run in order, the
// first consuming nothing and the last producing nothing, and stage i
// consumes queue i-1 and produces queue i, each queue of
// spec.QueueCapacity. Thread tid's branches sit at pcBase + tid·0x100, its
// private region draws from the stream Split(500+tid) and its loop from
// Split(tid) of the program's stream, and the shared region from
// Split(1000).
func pipeline(name string, pcBase uint64, spec PipelineSpec) Profile {
	// Every stage's threads must split the items evenly at every scale.
	mult := 1
	for _, st := range spec.Stages {
		mult = lcm(mult, st.Threads)
	}
	return Profile{
		Name: name,
		Build: func(scale float64, r *randx.Rand) *Program {
			items := max(scaleCount(spec.Items, scale)/mult*mult, (minItems+mult-1)/mult*mult)
			prog := &Program{Name: name}
			sh, pr := spec.Shared, spec.Private // copies: spec is shared by concurrent builds
			sh.Shared, pr.Shared = true, false
			shared := sh.build(0, r.Split(1000))
			for q := 0; q < len(spec.Stages)-1; q++ {
				prog.Queues = append(prog.Queues, QueueSpec{ID: q, Capacity: spec.QueueCapacity})
			}
			for i, st := range spec.Stages {
				out := i
				if i == len(spec.Stages)-1 {
					out = -1
				}
				for k := 0; k < st.Threads; k++ {
					tid := len(prog.Threads)
					l := loop{
						iters: items / st.Threads, in: i - 1, out: out,
						pcBase: pcBase + uint64(tid)*0x100, branches: st.Branches, branchBias: 0.85,
						computeMean: st.ComputeMean, computeJitter: st.ComputeJitter, instrsPerCycle: 1.2,
						memOps: st.MemOps, writeFrac: st.WriteFraction, sharedFrac: st.SharedFrac,
						private: pr.build(tid, r.Split(uint64(500+tid))), shared: shared,
					}
					prog.Threads = append(prog.Threads, l.generate(r.Split(uint64(tid))))
				}
			}
			return prog.drawShared(shared)
		},
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
