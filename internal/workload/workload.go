// Package workload generates the synthetic multithreaded programs the
// simulator executes. Each program is a per-thread stream of operations
// (compute bursts, loads/stores, branches, lock/unlock, barriers, and
// bounded-queue produce/consume for pipeline-parallel codes).
//
// The profiles are named after the eight PARSEC benchmarks the paper
// evaluates (Sec. 5.1, simsmall inputs). They are not ports of PARSEC —
// that is impossible and unnecessary here (see DESIGN.md) — but each
// profile's parallelism model, working-set size, sharing intensity, and
// synchronization rate are chosen to mirror the published characterization
// of its namesake, so the per-benchmark metric distributions differ in
// location, spread and shape the way the paper's Figs. 10–13 require:
// ferret and dedup are queue-based pipelines with heavy synchronization
// (high variability), canneal chases pointers across a huge footprint
// (high L2 MPKI), swaptions and blackscholes are embarrassingly parallel
// (tiny variability), and so on.
package workload

import (
	"fmt"

	"repro/internal/randx"
)

// OpKind enumerates the operations a thread can issue.
type OpKind int

// Operation kinds.
const (
	// OpCompute burns Cycles of pure computation representing Instrs
	// instructions.
	OpCompute OpKind = iota
	// OpLoad reads Addr through the memory hierarchy.
	OpLoad
	// OpStore writes Addr.
	OpStore
	// OpBranch resolves a conditional branch at PC with outcome Taken.
	OpBranch
	// OpLock acquires mutex ID (blocking).
	OpLock
	// OpUnlock releases mutex ID.
	OpUnlock
	// OpBarrier joins barrier ID; the thread blocks until all participants
	// arrive.
	OpBarrier
	// OpProduce enqueues one item into bounded queue ID (blocking when full).
	OpProduce
	// OpConsume dequeues one item from queue ID (blocking when empty).
	OpConsume
)

// Op is a single operation in a thread's stream.
type Op struct {
	Kind   OpKind
	Cycles uint64 // OpCompute: burst length
	Instrs uint64 // OpCompute: instructions represented
	Addr   uint64 // OpLoad/OpStore
	PC     uint64 // OpBranch
	Taken  bool   // OpBranch
	ID     int    // lock, barrier, or queue identifier
}

// ThreadGen produces a thread's operation stream.
type ThreadGen interface {
	// Next returns the next operation, or ok=false at end of stream.
	Next() (op Op, ok bool)
}

// QueueSpec declares a bounded queue used by a pipeline profile.
type QueueSpec struct {
	ID       int
	Capacity int
}

// BarrierSpec declares a barrier and its participant count.
type BarrierSpec struct {
	ID           int
	Participants int
}

// Program is a fully instantiated multithreaded workload.
type Program struct {
	Name     string
	Threads  []ThreadGen
	Queues   []QueueSpec
	Barriers []BarrierSpec
}

// Profile is a named workload blueprint; Build instantiates it for a run,
// drawing any randomized structure from the supplied stream.
type Profile struct {
	Name string
	// Scale multiplies the iteration counts; 1.0 is the "simsmall-like"
	// default. Tests use small scales for speed.
	Build func(scale float64, r *randx.Rand) *Program
}

// Names lists the built-in profiles in the paper's benchmark order.
func Names() []string {
	return []string{
		"blackscholes", "bodytrack", "canneal", "dedup",
		"ferret", "fluidanimate", "freqmine", "streamcluster", "swaptions",
	}
}

// ByName returns a built-in profile.
func ByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q (have %v)", name, Names())
}

// scaleCount scales an iteration count, keeping at least 1.
func scaleCount(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 1 {
		n = 1
	}
	return n
}

// region describes an address region a generator draws accesses from,
// with an optional temporal-locality model: a fraction of accesses target
// a small "hot" window (the current item buffer / stack frame) that slides
// through the region, which is what gives the simulated caches realistic
// hit rates; the rest draw from the whole region (zipf-skewed or uniform).
type region struct {
	base  uint64
	size  uint64 // bytes
	zipf  *randx.Zipf
	r     *randx.Rand
	block uint64

	hotFrac      float64 // fraction of accesses to the hot window
	hotBlocks    uint64  // hot-window size in blocks
	advanceEvery int     // window slides after this many accesses
	window       uint64  // current window start block
	count        int
}

func newRegion(base, size uint64, skew float64, r *randx.Rand) *region {
	blocks := int(size / 64)
	if blocks < 1 {
		blocks = 1
	}
	reg := &region{base: base, size: size, r: r, block: 64}
	if skew > 0 {
		reg.zipf = randx.NewZipf(r, blocks, skew)
	}
	return reg
}

// withLocality enables the hot-window model: hotFrac of accesses land in a
// window of hotBlocks cache blocks that advances by half its size every
// advanceEvery accesses.
func (reg *region) withLocality(hotFrac float64, hotBlocks uint64, advanceEvery int) *region {
	reg.hotFrac = hotFrac
	reg.hotBlocks = hotBlocks
	reg.advanceEvery = advanceEvery
	return reg
}

func (reg *region) addr() uint64 {
	blocks := reg.size / reg.block
	if blocks == 0 {
		blocks = 1
	}
	var b uint64
	reg.count++
	if reg.hotFrac > 0 && reg.r.Float64() < reg.hotFrac {
		if reg.advanceEvery > 0 && reg.count%reg.advanceEvery == 0 {
			step := reg.hotBlocks / 2
			if step == 0 {
				step = 1
			}
			reg.window = (reg.window + step) % blocks
		}
		span := reg.hotBlocks
		if span < 1 {
			span = 1
		}
		b = (reg.window + uint64(reg.r.Intn(int(span)))) % blocks
	} else if reg.zipf != nil {
		b = uint64(reg.zipf.Next())
	} else {
		b = uint64(reg.r.Intn(int(blocks)))
	}
	off := uint64(reg.r.Intn(int(reg.block)))
	return reg.base + b*reg.block + off
}

// loopGen is the workhorse generator: a fixed number of iterations, each
// emitting a randomized mix of branches, compute, private and shared
// accesses, and synchronization according to its parameters. It implements
// the per-iteration structure shared by all data-parallel profiles.
type loopGen struct {
	r     *randx.Rand
	iters int
	iter  int
	// queue holds the current iteration's ops and head the next one to
	// return. Both reset when the iteration drains, so the buffer is
	// reused and emit allocates nothing once it has grown to the largest
	// iteration.
	queue []Op
	head  int
	emit  func(g *loopGen)
}

func (g *loopGen) Next() (Op, bool) {
	for g.head == len(g.queue) {
		if g.iter >= g.iters {
			return Op{}, false
		}
		g.queue, g.head = g.queue[:0], 0
		g.iter++
		g.emit(g)
	}
	op := g.queue[g.head]
	g.head++
	return op, true
}

func (g *loopGen) push(op Op) { g.queue = append(g.queue, op) }

// dataParallelParams shape a loopGen-based thread.
type dataParallelParams struct {
	iters          int
	computeMean    int     // cycles per iteration burst
	computeJitter  int     // ± uniform jitter on the burst
	instrsPerCycle float64 // instructions represented per compute cycle
	memOps         int     // memory accesses per iteration
	writeFrac      float64
	sharedFrac     float64 // fraction of accesses to the shared region
	branches       int     // branches per iteration
	branchBias     float64 // probability taken
	private        *region
	shared         *region
	lockID         int // -1 for none
	lockEvery      int // take the lock every k iterations
	lockHeldOps    int // accesses inside the critical section
	barrierID      int // -1 for none
	barrierEvery   int
	pcBase         uint64
}

func newDataParallelGen(p dataParallelParams, r *randx.Rand) *loopGen {
	g := &loopGen{r: r, iters: p.iters}
	g.emit = func(g *loopGen) {
		// Branch cluster at the loop head.
		for b := 0; b < p.branches; b++ {
			g.push(Op{
				Kind:  OpBranch,
				PC:    p.pcBase + uint64(b)*4,
				Taken: g.r.Bernoulli(p.branchBias),
			})
		}
		// Compute burst.
		c := p.computeMean
		if p.computeJitter > 0 {
			c += g.r.UniformInt(-p.computeJitter, p.computeJitter)
		}
		if c < 1 {
			c = 1
		}
		g.push(Op{Kind: OpCompute, Cycles: uint64(c), Instrs: uint64(float64(c) * p.instrsPerCycle)})
		// Memory accesses.
		for m := 0; m < p.memOps; m++ {
			reg := p.private
			if p.shared != nil && g.r.Bernoulli(p.sharedFrac) {
				reg = p.shared
			}
			kind := OpLoad
			if g.r.Bernoulli(p.writeFrac) {
				kind = OpStore
			}
			g.push(Op{Kind: kind, Addr: reg.addr()})
		}
		// Critical section.
		if p.lockID >= 0 && p.lockEvery > 0 && g.iter%p.lockEvery == 0 {
			g.push(Op{Kind: OpLock, ID: p.lockID})
			for m := 0; m < p.lockHeldOps; m++ {
				kind := OpLoad
				if g.r.Bernoulli(0.5) {
					kind = OpStore
				}
				g.push(Op{Kind: kind, Addr: p.shared.addr()})
			}
			g.push(Op{Kind: OpUnlock, ID: p.lockID})
		}
		// Barrier.
		if p.barrierID >= 0 && p.barrierEvery > 0 && g.iter%p.barrierEvery == 0 {
			g.push(Op{Kind: OpBarrier, ID: p.barrierID})
		}
	}
	return g
}

// pipelineStageParams shape a pipeline-stage thread: consume from one
// queue, process, produce into the next.
type pipelineStageParams struct {
	items         int // items this thread processes
	inQueue       int // -1 for the source stage
	outQueue      int // -1 for the sink stage
	computeMean   int
	computeJitter int
	memOps        int
	writeFrac     float64
	sharedFrac    float64
	branches      int
	private       *region
	shared        *region
	pcBase        uint64
}

func newPipelineStageGen(p pipelineStageParams, r *randx.Rand) *loopGen {
	g := &loopGen{r: r, iters: p.items}
	g.emit = func(g *loopGen) {
		if p.inQueue >= 0 {
			g.push(Op{Kind: OpConsume, ID: p.inQueue})
		}
		for b := 0; b < p.branches; b++ {
			g.push(Op{Kind: OpBranch, PC: p.pcBase + uint64(b)*4, Taken: g.r.Bernoulli(0.85)})
		}
		c := p.computeMean
		if p.computeJitter > 0 {
			c += g.r.UniformInt(-p.computeJitter, p.computeJitter)
		}
		if c < 1 {
			c = 1
		}
		g.push(Op{Kind: OpCompute, Cycles: uint64(c), Instrs: uint64(float64(c) * 1.2)})
		for m := 0; m < p.memOps; m++ {
			reg := p.private
			if p.shared != nil && g.r.Bernoulli(p.sharedFrac) {
				reg = p.shared
			}
			kind := OpLoad
			if g.r.Bernoulli(p.writeFrac) {
				kind = OpStore
			}
			g.push(Op{Kind: kind, Addr: reg.addr()})
		}
		if p.outQueue >= 0 {
			g.push(Op{Kind: OpProduce, ID: p.outQueue})
		}
	}
	return g
}

// mb is a convenience for region sizes.
const mb = 1 << 20
