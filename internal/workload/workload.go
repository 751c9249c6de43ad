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
//
// A Program is read-only data. Profile.Build generates every thread's
// whole op stream once, from the program seed alone, and each simulated
// run replays it through its own Replay, so one built program serves any
// number of runs, concurrently too. Only the shared region's addresses
// depend on the run: they go to the threads in the order the run's
// interleaving reaches them, by the claim rule Replay documents.
package workload

import (
	"fmt"
	"slices"

	"repro/internal/randx"
)

// OpKind enumerates the operations a thread can issue.
type OpKind uint8

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

// Op is a single operation in a thread's stream. It packs into 24 bytes
// and holds no pointers, so a program's ops are flat arrays the garbage
// collector never scans. The constructors below make each kind, and the
// accessors read the fields that kind defines.
type Op struct {
	a, b  uint64 // Cycles and Instrs, or Addr, PC or ID in a
	kind  OpKind
	taken bool
	// shared marks an access whose address is the next one of the
	// program's shared stream, and claim, on an iteration's first op,
	// counts the shared addresses the iteration takes (see Replay). Only
	// Build sets them, so a hand-written program has no shared stream.
	shared bool
	claim  uint32
}

// Compute returns a burst of cycles of pure computation representing
// instrs instructions.
func Compute(cycles, instrs uint64) Op { return Op{kind: OpCompute, a: cycles, b: instrs} }

// Load returns a read of addr.
func Load(addr uint64) Op { return Op{kind: OpLoad, a: addr} }

// Store returns a write of addr.
func Store(addr uint64) Op { return Op{kind: OpStore, a: addr} }

// Branch returns a conditional branch at pc with outcome taken.
func Branch(pc uint64, taken bool) Op { return Op{kind: OpBranch, a: pc, taken: taken} }

// Lock returns an acquire of mutex id.
func Lock(id int) Op { return Op{kind: OpLock, a: uint64(id)} }

// Unlock returns a release of mutex id.
func Unlock(id int) Op { return Op{kind: OpUnlock, a: uint64(id)} }

// Barrier returns a join of barrier id.
func Barrier(id int) Op { return Op{kind: OpBarrier, a: uint64(id)} }

// Produce returns an enqueue into queue id.
func Produce(id int) Op { return Op{kind: OpProduce, a: uint64(id)} }

// Consume returns a dequeue from queue id.
func Consume(id int) Op { return Op{kind: OpConsume, a: uint64(id)} }

// Kind returns the op's kind.
func (op Op) Kind() OpKind { return op.kind }

// Cycles returns an OpCompute burst's length.
func (op Op) Cycles() uint64 { return op.a }

// Instrs returns the instructions an OpCompute burst represents.
func (op Op) Instrs() uint64 { return op.b }

// Addr returns an OpLoad or OpStore address.
func (op Op) Addr() uint64 { return op.a }

// PC returns an OpBranch address.
func (op Op) PC() uint64 { return op.a }

// Taken returns an OpBranch outcome.
func (op Op) Taken() bool { return op.taken }

// ID returns the lock, barrier or queue an op names.
func (op Op) ID() int { return int(op.a) }

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

// Program is a fully instantiated multithreaded workload: every thread's
// whole op stream, generated once. It is read-only, so any number of runs
// can replay it, concurrently too, each through its own Replay.
type Program struct {
	Name     string
	Threads  [][]Op
	Queues   []QueueSpec
	Barriers []BarrierSpec
	// shared is the shared region's address stream, drawn once in order;
	// Replay hands it out by the claim rule.
	shared []uint64
}

// Len returns the number of ops in the program.
func (p *Program) Len() int {
	n := 0
	for _, ops := range p.Threads {
		n += len(ops)
	}
	return n
}

// drawShared draws the program's shared stream from reg: one address for
// every shared access, in order. reg may be nil when no thread accesses a
// shared region.
func (p *Program) drawShared(reg *region) *Program {
	n := 0
	for _, ops := range p.Threads {
		for _, op := range ops {
			n += int(op.claim)
		}
	}
	if n > 0 {
		p.shared = make([]uint64, n)
		for i := range p.shared {
			p.shared[i] = reg.addr()
		}
	}
	return p
}

// Replay is one run's position in a Program. A Replay is reused from run
// to run and must not be shared between concurrent runs.
//
// It hands out the shared stream by the claim rule. Every thread of a
// profile draws its shared addresses from one random stream, and a thread
// draws all of an iteration's shared addresses when it reaches the
// iteration's first op. Which thread gets which address therefore depends
// on the run's interleaving, and Build cannot resolve them. Instead it
// writes each shared access as a placeholder, records on the iteration's
// first op how many the iteration takes (its claim), and draws the whole
// stream once, in order, after every thread is generated. One cursor
// walks that stream during a run: a thread reaching an op with a claim
// takes the next claim addresses as one block, and the iteration's
// placeholders read them in order. The cursor thus hands out the stream in
// exactly the order the threads would have drawn it. Every iteration
// emits at least its compute op, so a claim always has an op to sit on.
type Replay struct {
	prog    *Program
	threads []cursor
	claimed int // shared addresses handed out so far
}

type cursor struct {
	next   int // index of the thread's next op
	shared int // index in prog.shared of the thread's next shared address
}

// Reset starts a run of prog.
func (r *Replay) Reset(prog *Program) {
	r.prog = prog
	r.claimed = 0
	if cap(r.threads) < len(prog.Threads) {
		r.threads = make([]cursor, len(prog.Threads))
	}
	r.threads = r.threads[:len(prog.Threads)]
	clear(r.threads)
}

// Next returns thread tid's next op, a shared access with its address
// filled in, or ok=false at the end of the thread's stream.
func (r *Replay) Next(tid int) (op Op, ok bool) {
	c := &r.threads[tid]
	ops := r.prog.Threads[tid]
	if c.next == len(ops) {
		return Op{}, false
	}
	op = ops[c.next]
	c.next++
	if op.claim > 0 {
		c.shared = r.claimed
		r.claimed += int(op.claim)
	}
	if op.shared {
		op.a = r.prog.shared[c.shared]
		c.shared++
	}
	return op, true
}

// Profile is a named workload blueprint; Build instantiates it, drawing
// every op from the supplied stream, and the Program can then be replayed
// by any number of runs.
type Profile struct {
	Name string
	// Scale multiplies the iteration counts; 1.0 is the "simsmall-like"
	// default. Tests use small scales for speed.
	Build func(scale float64, r *randx.Rand) *Program
}

// MaxScale bounds the scale a run may ask for. Build materializes the
// whole program, which grows linearly with scale, and at MaxScale the
// largest built-in program (canneal) still fits the simulator's program
// cache (internal/sim pins this).
const MaxScale = 4

// CheckScale refuses a scale that is not finite or not in (0, MaxScale].
func CheckScale(scale float64) error {
	if !(scale > 0 && scale <= MaxScale) { // NaN fails both compares
		return fmt.Errorf("workload: scale %v outside (0, %d]", scale, MaxScale)
	}
	return nil
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
	// shared marks the program's shared mapping, which every thread draws
	// from: its accesses are placeholders until drawShared (see Replay).
	shared bool

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
	reg := &region{base: base, size: size, r: r, block: 64, shared: RegionIndex(base) == 0}
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

// thread generates one thread's whole op stream, an iteration at a time.
// It is the structure shared by all profiles: a fixed number of
// iterations, each emitting a randomized mix of branches, compute, private
// and shared accesses, and synchronization according to its parameters.
type thread struct {
	r     *randx.Rand
	iter  int
	ops   []Op
	claim int // shared addresses the current iteration takes
}

// generate runs emit for iterations 1 to iters and returns the stream,
// each iteration's claim recorded on its first op, in a slice cut to its
// length since a cached program lives as long as the process. Every emit
// appends at least its compute op. A claim fits in 32 bits: an iteration
// of 2^32 shared accesses would take 96 GB of ops.
func generate(r *randx.Rand, iters int, emit func(t *thread)) []Op {
	t := &thread{r: r}
	for t.iter = 1; t.iter <= iters; t.iter++ {
		first := len(t.ops)
		t.claim = 0
		emit(t)
		t.ops[first].claim = uint32(t.claim)
	}
	return slices.Clone(t.ops)
}

func (t *thread) push(op Op) { t.ops = append(t.ops, op) }

// access appends a store to reg when write holds, else a load. An access
// to the shared region is a placeholder the claim rule fills in.
func (t *thread) access(reg *region, write bool) {
	op := Op{kind: OpLoad}
	if write {
		op.kind = OpStore
	}
	if reg.shared {
		op.shared = true
		t.claim++
	} else {
		op.a = reg.addr()
	}
	t.push(op)
}

// dataParallelParams shape a data-parallel thread.
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

func dataParallelThread(p dataParallelParams, r *randx.Rand) []Op {
	return generate(r, p.iters, func(t *thread) {
		// Branch cluster at the loop head.
		for b := 0; b < p.branches; b++ {
			t.push(Branch(p.pcBase+uint64(b)*4, t.r.Bernoulli(p.branchBias)))
		}
		// Compute burst.
		c := p.computeMean
		if p.computeJitter > 0 {
			c += t.r.UniformInt(-p.computeJitter, p.computeJitter)
		}
		if c < 1 {
			c = 1
		}
		t.push(Compute(uint64(c), uint64(float64(c)*p.instrsPerCycle)))
		// Memory accesses.
		for m := 0; m < p.memOps; m++ {
			reg := p.private
			if p.shared != nil && t.r.Bernoulli(p.sharedFrac) {
				reg = p.shared
			}
			t.access(reg, t.r.Bernoulli(p.writeFrac))
		}
		// Critical section.
		if p.lockID >= 0 && p.lockEvery > 0 && t.iter%p.lockEvery == 0 {
			t.push(Lock(p.lockID))
			for m := 0; m < p.lockHeldOps; m++ {
				t.access(p.shared, t.r.Bernoulli(0.5))
			}
			t.push(Unlock(p.lockID))
		}
		// Barrier.
		if p.barrierID >= 0 && p.barrierEvery > 0 && t.iter%p.barrierEvery == 0 {
			t.push(Barrier(p.barrierID))
		}
	})
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

func pipelineStageThread(p pipelineStageParams, r *randx.Rand) []Op {
	return generate(r, p.items, func(t *thread) {
		if p.inQueue >= 0 {
			t.push(Consume(p.inQueue))
		}
		for b := 0; b < p.branches; b++ {
			t.push(Branch(p.pcBase+uint64(b)*4, t.r.Bernoulli(0.85)))
		}
		c := p.computeMean
		if p.computeJitter > 0 {
			c += t.r.UniformInt(-p.computeJitter, p.computeJitter)
		}
		if c < 1 {
			c = 1
		}
		t.push(Compute(uint64(c), uint64(float64(c)*1.2)))
		for m := 0; m < p.memOps; m++ {
			reg := p.private
			if p.shared != nil && t.r.Bernoulli(p.sharedFrac) {
				reg = p.shared
			}
			t.access(reg, t.r.Bernoulli(p.writeFrac))
		}
		if p.outQueue >= 0 {
			t.push(Produce(p.outQueue))
		}
	})
}

// mb is a convenience for region sizes.
const mb = 1 << 20
