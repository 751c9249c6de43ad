package workload

import "repro/internal/randx"

// Address-space layout: one shared region plus one private region per
// thread, far apart so they never alias. Exported so the machine model can
// apply per-mapping ASLR offsets without breaking sharing.
const (
	// SharedBase is the start of the program's shared data mapping.
	SharedBase = 0x1000_0000
	// PrivateBase is the start of thread 0's private mapping.
	PrivateBase = 0x4000_0000
	// PrivateStep is the spacing between consecutive private mappings.
	PrivateStep = 0x0200_0000 // 32 MB apart
)

func privBase(tid int) uint64 { return PrivateBase + uint64(tid)*PrivateStep }

// RegionIndex maps an address to its mapping index: 0 for the shared
// mapping (and anything below the private area), 1+k for thread k's
// private mapping. Under ASLR each mapping gets its own per-run offset.
func RegionIndex(addr uint64) int {
	if addr < PrivateBase {
		return 0
	}
	return 1 + int((addr-PrivateBase)/PrivateStep)
}

// parallel declares a data-parallel profile: four threads run one loop,
// each over a private region of its own and all over one shared region.
type parallel struct {
	iters   int        // iterations per thread at scale 1
	pcBase  uint64     // thread t's branches sit at pcBase + t·0x100
	shared  RegionSpec // zero size for no shared region
	private RegionSpec
	// locks spreads the critical sections: thread t takes lock t % locks.
	locks int
	// loop is every other field of the threads' loop.
	loop loop
}

// lastIter, as a parallel profile's barrierEvery, puts one barrier on the
// last iteration.
const lastIter = -1

// dataParallel assembles a data-parallel profile. Thread t draws from the
// stream Split(t) of the program's stream and takes its private region's
// stream, Split(1), before its loop draws: a split reads the parent's
// current state (randx.SplitInto), so this order is part of every
// program. The shared region draws from Split(1000).
func dataParallel(name string, spec parallel) Profile {
	return Profile{
		Name: name,
		Build: func(scale float64, r *randx.Rand) *Program {
			const threads = 4
			prog := &Program{Name: name}
			iters := scaleCount(spec.iters, scale)
			var shared *region
			if spec.shared.SizeBytes > 0 {
				shared = spec.shared.build(0, r.Split(1000))
			}
			for t := 0; t < threads; t++ {
				tr := r.Split(uint64(t))
				l := spec.loop // a copy: spec is shared by concurrent builds
				l.iters, l.in, l.out = iters, -1, -1
				l.pcBase = spec.pcBase + uint64(t)*0x100
				l.private, l.shared = spec.private.build(t, tr.Split(1)), shared
				if spec.locks > 0 {
					l.lockID = t % spec.locks
				}
				if l.barrierEvery == lastIter {
					l.barrierEvery = iters
				}
				prog.Threads = append(prog.Threads, l.generate(tr))
			}
			if spec.loop.barrierEvery != 0 {
				prog.Barriers = []BarrierSpec{{ID: 0, Participants: threads}}
			}
			return prog.drawShared(shared)
		},
	}
}

var profiles = []Profile{
	// Embarrassingly parallel option pricing: private streaming data,
	// a single final barrier, essentially no sharing. The lowest
	// variability of the suite (the paper's CoV floor of 0.0002).
	dataParallel("blackscholes", parallel{
		iters: 400, pcBase: 0x1000,
		shared:  RegionSpec{Shared: true, SizeBytes: 1 * mb},
		private: RegionSpec{SizeBytes: 1 * mb, HotFraction: 0.92, HotBlocks: 48, AdvanceEvery: 160},
		loop: loop{
			computeMean: 300, computeJitter: 20, instrsPerCycle: 1.5,
			memOps: 48, writeFrac: 0.25, sharedFrac: 0.02, branches: 4, branchBias: 0.92,
			barrierEvery: lastIter,
		},
	}),
	// Per-frame data parallelism with frequent barriers and a shared
	// model updated under a lock.
	dataParallel("bodytrack", parallel{
		iters: 300, pcBase: 0x2000,
		shared:  RegionSpec{Shared: true, SizeBytes: 4 * mb, ZipfSkew: 0.7},
		private: RegionSpec{SizeBytes: 2 * mb, HotFraction: 0.9, HotBlocks: 64, AdvanceEvery: 160},
		locks:   1,
		loop: loop{
			computeMean: 220, computeJitter: 50, instrsPerCycle: 1.3,
			memOps: 80, writeFrac: 0.3, sharedFrac: 0.15, branches: 6, branchBias: 0.85,
			lockEvery: 40, lockHeldOps: 3, barrierEvery: 25,
		},
	}),
	// Simulated annealing over a netlist far larger than the L2:
	// pointer-chasing random accesses, tiny lock-protected swaps.
	// The L2-MPKI outlier of the suite.
	dataParallel("canneal", parallel{
		iters: 250, pcBase: 0x3000,
		shared:  RegionSpec{Shared: true, SizeBytes: 48 * mb},
		private: RegionSpec{SizeBytes: 256 * 1024, HotFraction: 0.85, HotBlocks: 48, AdvanceEvery: 200},
		locks:   2,
		loop: loop{
			computeMean: 90, computeJitter: 20, instrsPerCycle: 1.0,
			memOps: 240, writeFrac: 0.4, sharedFrac: 0.9, branches: 5, branchBias: 0.6,
			lockEvery: 10, lockHeldOps: 2,
		},
	}),
	// Three-stage deduplication pipeline over bounded queues: a source
	// reads input and produces chunks, two chunkers, three compressors
	// (the heavy stage) and a sink.
	pipeline("dedup", 0x4000, PipelineSpec{
		Items: 48, QueueCapacity: 4,
		Shared:  RegionSpec{SizeBytes: 12 * mb, ZipfSkew: 1.0},
		Private: RegionSpec{SizeBytes: 1 * mb, HotFraction: 0.9, HotBlocks: 64, AdvanceEvery: 150},
		Stages: []PipelineStageSpec{
			{Threads: 1, ComputeMean: 120, ComputeJitter: 30, MemOps: 64, WriteFraction: 0.2, SharedFrac: 0.2, Branches: 3},
			{Threads: 2, ComputeMean: 260, ComputeJitter: 60, MemOps: 96, WriteFraction: 0.3, SharedFrac: 0.5, Branches: 5},
			{Threads: 3, ComputeMean: 520, ComputeJitter: 140, MemOps: 128, WriteFraction: 0.4, SharedFrac: 0.3, Branches: 6},
			{Threads: 1, ComputeMean: 90, ComputeJitter: 20, MemOps: 48, WriteFraction: 0.6, SharedFrac: 0.2, Branches: 2},
		},
	}),
	// Content-based image search: the paper's variability star. A
	// deep pipeline (input → segment → extract×2 → index×2 → rank×2 →
	// output) over small bounded queues; the rank stage dominates, so
	// which interleaving the scheduler falls into decides whether the
	// pipeline streams or stalls — frequent synchronization and data
	// sharing, exactly as Sec. 5.1 describes.
	pipeline("ferret", 0x5000, PipelineSpec{
		Items: 64, QueueCapacity: 2,
		Shared:  RegionSpec{SizeBytes: 896 * 1024, ZipfSkew: 0.3},
		Private: RegionSpec{SizeBytes: 768 * 1024, HotFraction: 0.9, HotBlocks: 64, AdvanceEvery: 150},
		Stages: []PipelineStageSpec{
			{Threads: 1, ComputeMean: 60, ComputeJitter: 15, MemOps: 32, WriteFraction: 0.2, SharedFrac: 0.1, Branches: 2},
			{Threads: 1, ComputeMean: 200, ComputeJitter: 50, MemOps: 80, WriteFraction: 0.25, SharedFrac: 0.55, Branches: 4},
			{Threads: 2, ComputeMean: 340, ComputeJitter: 90, MemOps: 112, WriteFraction: 0.3, SharedFrac: 0.65, Branches: 5},
			{Threads: 2, ComputeMean: 300, ComputeJitter: 80, MemOps: 144, WriteFraction: 0.25, SharedFrac: 0.8, Branches: 5},
			{Threads: 2, ComputeMean: 900, ComputeJitter: 260, MemOps: 176, WriteFraction: 0.2, SharedFrac: 0.75, Branches: 8},
			{Threads: 1, ComputeMean: 50, ComputeJitter: 10, MemOps: 24, WriteFraction: 0.7, SharedFrac: 0.1, Branches: 2},
		},
	}),
	// Grid fluid dynamics: the most lock-intensive PARSEC code
	// (fine-grained cell locks) plus frequent barriers.
	dataParallel("fluidanimate", parallel{
		iters: 300, pcBase: 0x6000,
		shared:  RegionSpec{Shared: true, SizeBytes: 6 * mb, ZipfSkew: 0.8},
		private: RegionSpec{SizeBytes: 1536 * 1024, HotFraction: 0.9, HotBlocks: 56, AdvanceEvery: 180},
		locks:   4,
		loop: loop{
			computeMean: 150, computeJitter: 30, instrsPerCycle: 1.4,
			memOps: 96, writeFrac: 0.35, sharedFrac: 0.3, branches: 5, branchBias: 0.8,
			lockEvery: 1, lockHeldOps: 2, barrierEvery: 30,
		},
	}),
	// Frequent-itemset mining over a shared FP-tree: read-mostly
	// skewed accesses, almost no locking.
	dataParallel("freqmine", parallel{
		iters: 280, pcBase: 0x7000,
		shared:  RegionSpec{Shared: true, SizeBytes: 8 * mb, ZipfSkew: 1.15},
		private: RegionSpec{SizeBytes: 1 * mb, HotFraction: 0.92, HotBlocks: 48, AdvanceEvery: 160},
		loop: loop{
			computeMean: 350, computeJitter: 60, instrsPerCycle: 1.6,
			memOps: 112, writeFrac: 0.15, sharedFrac: 0.6, branches: 7, branchBias: 0.75,
			barrierEvery: 140,
		},
	}),
	// Online clustering: barrier after every point batch, half the
	// accesses hit the shared centers.
	dataParallel("streamcluster", parallel{
		iters: 300, pcBase: 0x8000,
		shared:  RegionSpec{Shared: true, SizeBytes: 2 * mb, ZipfSkew: 0.5},
		private: RegionSpec{SizeBytes: 1 * mb, HotFraction: 0.92, HotBlocks: 48, AdvanceEvery: 160},
		locks:   1,
		loop: loop{
			computeMean: 180, computeJitter: 25, instrsPerCycle: 1.2,
			memOps: 128, writeFrac: 0.2, sharedFrac: 0.5, branches: 4, branchBias: 0.88,
			lockEvery: 30, lockHeldOps: 2, barrierEvery: 10,
		},
	}),
	// Monte-Carlo swaption pricing: fully independent threads on
	// private data; the only synchronization is program exit.
	dataParallel("swaptions", parallel{
		iters: 350, pcBase: 0x9000,
		private: RegionSpec{SizeBytes: 512 * 1024, HotFraction: 0.94, HotBlocks: 40, AdvanceEvery: 200},
		loop: loop{
			computeMean: 400, computeJitter: 60, instrsPerCycle: 1.7,
			memOps: 32, writeFrac: 0.3, branches: 5, branchBias: 0.9,
		},
	}),
}
