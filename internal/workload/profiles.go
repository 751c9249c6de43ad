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

// Each data-parallel profile below takes its thread's private-region
// stream, tr.Split(1), inside the params literal, before dataParallelThread
// draws from tr. A split reads the parent's current state
// (randx.SplitInto), so this order is part of every program the golden
// fence pins.
var profiles = []Profile{
	{
		// Embarrassingly parallel option pricing: private streaming data,
		// a single final barrier, essentially no sharing. The lowest
		// variability of the suite (the paper's CoV floor of 0.0002).
		Name: "blackscholes",
		Build: func(scale float64, r *randx.Rand) *Program {
			const threads = 4
			prog := &Program{Name: "blackscholes"}
			iters := scaleCount(400, scale)
			shared := newRegion(SharedBase, 1*mb, 0, r.Split(1000))
			for t := 0; t < threads; t++ {
				tr := r.Split(uint64(t))
				ops := dataParallelThread(dataParallelParams{
					iters: iters, computeMean: 300, computeJitter: 20,
					instrsPerCycle: 1.5, memOps: 48, writeFrac: 0.25,
					sharedFrac: 0.02, branches: 4, branchBias: 0.92,
					private: newRegion(privBase(t), 1*mb, 0, tr.Split(1)).withLocality(0.92, 48, 160),
					shared:  shared, lockID: -1, barrierID: 0,
					barrierEvery: iters, // one barrier at the end
					pcBase:       0x1000 + uint64(t)*0x100,
				}, tr)
				prog.Threads = append(prog.Threads, ops)
			}
			prog.Barriers = []BarrierSpec{{ID: 0, Participants: threads}}
			return prog.drawShared(shared)
		},
	},
	{
		// Per-frame data parallelism with frequent barriers and a shared
		// model updated under a lock.
		Name: "bodytrack",
		Build: func(scale float64, r *randx.Rand) *Program {
			const threads = 4
			prog := &Program{Name: "bodytrack"}
			iters := scaleCount(300, scale)
			shared := newRegion(SharedBase, 4*mb, 0.7, r.Split(1000))
			for t := 0; t < threads; t++ {
				tr := r.Split(uint64(t))
				ops := dataParallelThread(dataParallelParams{
					iters: iters, computeMean: 220, computeJitter: 50,
					instrsPerCycle: 1.3, memOps: 80, writeFrac: 0.3,
					sharedFrac: 0.15, branches: 6, branchBias: 0.85,
					private: newRegion(privBase(t), 2*mb, 0, tr.Split(1)).withLocality(0.9, 64, 160),
					shared:  shared, lockID: 0, lockEvery: 40, lockHeldOps: 3,
					barrierID: 0, barrierEvery: 25,
					pcBase: 0x2000 + uint64(t)*0x100,
				}, tr)
				prog.Threads = append(prog.Threads, ops)
			}
			prog.Barriers = []BarrierSpec{{ID: 0, Participants: threads}}
			return prog.drawShared(shared)
		},
	},
	{
		// Simulated annealing over a netlist far larger than the L2:
		// pointer-chasing random accesses, tiny lock-protected swaps.
		// The L2-MPKI outlier of the suite.
		Name: "canneal",
		Build: func(scale float64, r *randx.Rand) *Program {
			const threads = 4
			prog := &Program{Name: "canneal"}
			iters := scaleCount(250, scale)
			shared := newRegion(SharedBase, 48*mb, 0, r.Split(1000))
			for t := 0; t < threads; t++ {
				tr := r.Split(uint64(t))
				ops := dataParallelThread(dataParallelParams{
					iters: iters, computeMean: 90, computeJitter: 20,
					instrsPerCycle: 1.0, memOps: 240, writeFrac: 0.4,
					sharedFrac: 0.9, branches: 5, branchBias: 0.6,
					private: newRegion(privBase(t), 256*1024, 0, tr.Split(1)).withLocality(0.85, 48, 200),
					shared:  shared, lockID: t % 2, lockEvery: 10, lockHeldOps: 2,
					barrierID: -1,
					pcBase:    0x3000 + uint64(t)*0x100,
				}, tr)
				prog.Threads = append(prog.Threads, ops)
			}
			return prog.drawShared(shared)
		},
	},
	{
		// Three-stage deduplication pipeline over bounded queues.
		Name: "dedup",
		Build: func(scale float64, r *randx.Rand) *Program {
			prog := &Program{Name: "dedup"}
			items := scaleCount(48, scale) / 6 * 6 // divisible by 2 and 3
			if items < 6 {
				items = 6
			}
			shared := newRegion(SharedBase, 12*mb, 1.0, r.Split(1000))
			prog.Queues = []QueueSpec{{ID: 0, Capacity: 4}, {ID: 1, Capacity: 4}, {ID: 2, Capacity: 4}}
			tid := 0
			add := func(p pipelineStageParams) {
				p.pcBase = 0x4000 + uint64(tid)*0x100
				if p.private == nil {
					p.private = newRegion(privBase(tid), 1*mb, 0, r.Split(uint64(500+tid))).withLocality(0.9, 64, 150)
				}
				p.shared = shared
				prog.Threads = append(prog.Threads, pipelineStageThread(p, r.Split(uint64(tid))))
				tid++
			}
			// Source reads input and produces chunks.
			add(pipelineStageParams{items: items, inQueue: -1, outQueue: 0,
				computeMean: 120, computeJitter: 30, memOps: 64, writeFrac: 0.2, sharedFrac: 0.2, branches: 3})
			// Two chunkers.
			for i := 0; i < 2; i++ {
				add(pipelineStageParams{items: items / 2, inQueue: 0, outQueue: 1,
					computeMean: 260, computeJitter: 60, memOps: 96, writeFrac: 0.3, sharedFrac: 0.5, branches: 5})
			}
			// Three compressors (the heavy stage).
			for i := 0; i < 3; i++ {
				add(pipelineStageParams{items: items / 3, inQueue: 1, outQueue: 2,
					computeMean: 520, computeJitter: 140, memOps: 128, writeFrac: 0.4, sharedFrac: 0.3, branches: 6})
			}
			// Sink.
			add(pipelineStageParams{items: items, inQueue: 2, outQueue: -1,
				computeMean: 90, computeJitter: 20, memOps: 48, writeFrac: 0.6, sharedFrac: 0.2, branches: 2})
			return prog.drawShared(shared)
		},
	},
	{
		// Content-based image search: the paper's variability star. A
		// deep pipeline (input → segment → extract×2 → index×2 → rank×2 →
		// output) over small bounded queues; the rank stage dominates, so
		// which interleaving the scheduler falls into decides whether the
		// pipeline streams or stalls — frequent synchronization and data
		// sharing, exactly as Sec. 5.1 describes.
		Name: "ferret",
		Build: func(scale float64, r *randx.Rand) *Program {
			prog := &Program{Name: "ferret"}
			items := scaleCount(64, scale) / 2 * 2
			if items < 4 {
				items = 4
			}
			shared := newRegion(SharedBase, 896*1024, 0.3, r.Split(1000))
			prog.Queues = []QueueSpec{
				{ID: 0, Capacity: 2}, {ID: 1, Capacity: 2},
				{ID: 2, Capacity: 2}, {ID: 3, Capacity: 2}, {ID: 4, Capacity: 2},
			}
			tid := 0
			add := func(p pipelineStageParams) {
				p.pcBase = 0x5000 + uint64(tid)*0x100
				if p.private == nil {
					p.private = newRegion(privBase(tid), 768*1024, 0, r.Split(uint64(500+tid))).withLocality(0.9, 64, 150)
				}
				p.shared = shared
				prog.Threads = append(prog.Threads, pipelineStageThread(p, r.Split(uint64(tid))))
				tid++
			}
			add(pipelineStageParams{items: items, inQueue: -1, outQueue: 0,
				computeMean: 60, computeJitter: 15, memOps: 32, writeFrac: 0.2, sharedFrac: 0.1, branches: 2})
			add(pipelineStageParams{items: items, inQueue: 0, outQueue: 1,
				computeMean: 200, computeJitter: 50, memOps: 80, writeFrac: 0.25, sharedFrac: 0.55, branches: 4})
			for i := 0; i < 2; i++ {
				add(pipelineStageParams{items: items / 2, inQueue: 1, outQueue: 2,
					computeMean: 340, computeJitter: 90, memOps: 112, writeFrac: 0.3, sharedFrac: 0.65, branches: 5})
			}
			for i := 0; i < 2; i++ {
				add(pipelineStageParams{items: items / 2, inQueue: 2, outQueue: 3,
					computeMean: 300, computeJitter: 80, memOps: 144, writeFrac: 0.25, sharedFrac: 0.8, branches: 5})
			}
			for i := 0; i < 2; i++ {
				add(pipelineStageParams{items: items / 2, inQueue: 3, outQueue: 4,
					computeMean: 900, computeJitter: 260, memOps: 176, writeFrac: 0.2, sharedFrac: 0.75, branches: 8})
			}
			add(pipelineStageParams{items: items, inQueue: 4, outQueue: -1,
				computeMean: 50, computeJitter: 10, memOps: 24, writeFrac: 0.7, sharedFrac: 0.1, branches: 2})
			return prog.drawShared(shared)
		},
	},
	{
		// Grid fluid dynamics: the most lock-intensive PARSEC code
		// (fine-grained cell locks) plus frequent barriers.
		Name: "fluidanimate",
		Build: func(scale float64, r *randx.Rand) *Program {
			const threads = 4
			prog := &Program{Name: "fluidanimate"}
			iters := scaleCount(300, scale)
			shared := newRegion(SharedBase, 6*mb, 0.8, r.Split(1000))
			for t := 0; t < threads; t++ {
				tr := r.Split(uint64(t))
				ops := dataParallelThread(dataParallelParams{
					iters: iters, computeMean: 150, computeJitter: 30,
					instrsPerCycle: 1.4, memOps: 96, writeFrac: 0.35,
					sharedFrac: 0.3, branches: 5, branchBias: 0.8,
					private: newRegion(privBase(t), 1536*1024, 0, tr.Split(1)).withLocality(0.9, 56, 180),
					shared:  shared, lockID: t, lockEvery: 1, lockHeldOps: 2,
					barrierID: 0, barrierEvery: 30,
					pcBase: 0x6000 + uint64(t)*0x100,
				}, tr)
				prog.Threads = append(prog.Threads, ops)
			}
			prog.Barriers = []BarrierSpec{{ID: 0, Participants: threads}}
			return prog.drawShared(shared)
		},
	},
	{
		// Frequent-itemset mining over a shared FP-tree: read-mostly
		// skewed accesses, almost no locking.
		Name: "freqmine",
		Build: func(scale float64, r *randx.Rand) *Program {
			const threads = 4
			prog := &Program{Name: "freqmine"}
			iters := scaleCount(280, scale)
			shared := newRegion(SharedBase, 8*mb, 1.15, r.Split(1000))
			for t := 0; t < threads; t++ {
				tr := r.Split(uint64(t))
				ops := dataParallelThread(dataParallelParams{
					iters: iters, computeMean: 350, computeJitter: 60,
					instrsPerCycle: 1.6, memOps: 112, writeFrac: 0.15,
					sharedFrac: 0.6, branches: 7, branchBias: 0.75,
					private: newRegion(privBase(t), 1*mb, 0, tr.Split(1)).withLocality(0.92, 48, 160),
					shared:  shared, lockID: -1,
					barrierID: 0, barrierEvery: 140,
					pcBase: 0x7000 + uint64(t)*0x100,
				}, tr)
				prog.Threads = append(prog.Threads, ops)
			}
			prog.Barriers = []BarrierSpec{{ID: 0, Participants: threads}}
			return prog.drawShared(shared)
		},
	},
	{
		// Online clustering: barrier after every point batch, half the
		// accesses hit the shared centers.
		Name: "streamcluster",
		Build: func(scale float64, r *randx.Rand) *Program {
			const threads = 4
			prog := &Program{Name: "streamcluster"}
			iters := scaleCount(300, scale)
			shared := newRegion(SharedBase, 2*mb, 0.5, r.Split(1000))
			for t := 0; t < threads; t++ {
				tr := r.Split(uint64(t))
				ops := dataParallelThread(dataParallelParams{
					iters: iters, computeMean: 180, computeJitter: 25,
					instrsPerCycle: 1.2, memOps: 128, writeFrac: 0.2,
					sharedFrac: 0.5, branches: 4, branchBias: 0.88,
					private: newRegion(privBase(t), 1*mb, 0, tr.Split(1)).withLocality(0.92, 48, 160),
					shared:  shared, lockID: 0, lockEvery: 30, lockHeldOps: 2,
					barrierID: 0, barrierEvery: 10,
					pcBase: 0x8000 + uint64(t)*0x100,
				}, tr)
				prog.Threads = append(prog.Threads, ops)
			}
			prog.Barriers = []BarrierSpec{{ID: 0, Participants: threads}}
			return prog.drawShared(shared)
		},
	},
	{
		// Monte-Carlo swaption pricing: fully independent threads on
		// private data; the only synchronization is program exit.
		Name: "swaptions",
		Build: func(scale float64, r *randx.Rand) *Program {
			const threads = 4
			prog := &Program{Name: "swaptions"}
			iters := scaleCount(350, scale)
			for t := 0; t < threads; t++ {
				tr := r.Split(uint64(t))
				ops := dataParallelThread(dataParallelParams{
					iters: iters, computeMean: 400, computeJitter: 60,
					instrsPerCycle: 1.7, memOps: 32, writeFrac: 0.3,
					sharedFrac: 0, branches: 5, branchBias: 0.9,
					private: newRegion(privBase(t), 512*1024, 0, tr.Split(1)).withLocality(0.94, 40, 200),
					shared:  nil, lockID: -1, barrierID: -1,
					pcBase: 0x9000 + uint64(t)*0x100,
				}, tr)
				prog.Threads = append(prog.Threads, ops)
			}
			return prog
		},
	},
}
