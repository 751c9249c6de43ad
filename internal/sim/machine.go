package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/randx"
	"repro/internal/sim/cache"
	"repro/internal/sim/coherence"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
	"repro/internal/sim/noc"
	"repro/internal/workload"
)

// threadState is a thread's scheduling state.
type threadState int

const (
	tsReady threadState = iota
	tsRunning
	tsBlocked
	tsDone
)

type threadCtx struct {
	id        int
	state     threadState
	lastCore  int
	fetchPC   uint64
	blockedAt uint64
	lockWait  uint64 // accumulated cycles blocked on synchronization
}

type coreCtx struct {
	id         int
	thread     int // -1 when idle
	quantumEnd uint64
	lastThread int
	// outstanding holds the completion times of in-flight memory accesses
	// (the OoO core's MSHR window).
	outstanding []uint64
}

type lockSt struct {
	owner   int // -1 when free
	waiters []int
}

type barrierSt struct {
	participants int
	waiting      []int
}

type queueSt struct {
	capacity  int
	occupancy int
	fullWait  []int // producers blocked on a full queue
	emptyWait []int // consumers blocked on an empty queue
}

// machine wires the full system for one run.
//
// Its event queue is one pending-activation slot per core: wakeAt[c] holds
// core c's next activation time while bit c of armed is set. A core is
// re-armed only from its own step, whose slot was cleared when the step
// was popped, or by wake while it is idle, and an idle core has nothing
// pending: it went idle in its own step without re-arming. So a core never
// holds two activations (continueAt panics if one would), and popping the
// lowest (time, core) over the armed slots yields exactly the order of a
// heap over all pending events. Config.Validate caps Cores at 64, the
// width of armed.
type machine struct {
	cfg    Config
	prog   *workload.Program
	replay workload.Replay

	l1i  []*cache.Cache
	l1d  []*cache.Cache
	l2   *cache.Cache
	dir  *coherence.Directory
	xbar *noc.Crossbar
	dram *mem.DRAM
	bp   []cpu.Predictor
	tlb  []*cpu.TLB

	cores    []coreCtx
	threads  []threadCtx
	ready    []int
	wakeAt   []uint64
	armed    uint64
	locks    map[int]*lockSt
	barriers map[int]*barrierSt
	queues   map[int]*queueSt

	noiseRng *randx.Rand

	// Colocation state, fixed per run.
	colocActive bool
	colocSlow   float64

	// kernelPtr streams through a synthetic kernel region on context
	// switches, polluting the L2 (full-system effect).
	kernelPtr uint64

	// aslr holds each mapping's per-run page-aligned base offset
	// (index 0 = shared mapping, 1+k = thread k's private mapping).
	aslr []uint64

	thermal *thermalModel
	tracer  *tracer

	// Aggregate statistics.
	now            uint64
	finished       int
	instructions   uint64
	computeCycles  uint64
	busyCycles     uint64 // total core-busy cycles (drives the thermal model)
	mispredictCost uint64
	loads          uint64
	loadLatencySum uint64
	loadLatencyMax uint64
	ctxSwitches    uint64
	migrations     uint64
	preemptions    uint64
	osNoiseEvents  uint64
	syncWaitCycles uint64
	prefetches     uint64
}

// defaultProgSeed fixes the program's structural randomness: as in the
// paper (Sec. 5.2), the benchmark is the same program on every execution.
const defaultProgSeed = 0x0BEEF

// Run builds the named workload profile at the given scale and executes it
// on the configured system, returning the execution's metrics and trace.
//
// As in the paper (Sec. 5.2), the benchmark is the same program on every
// execution: the program's structural randomness comes from a fixed seed,
// and the run seed only drives the injected variability (DRAM jitter, OS
// noise, the colocation draw) and everything it perturbs.
//
// Run executes on a pooled Runner arena, so repeated calls with the same
// Config reuse machine state instead of reallocating it, and it replays
// the program from a process-wide cache instead of building it again.
func Run(profile string, cfg Config, scale float64, seed uint64) (*Result, error) {
	return pooledRun(func(r *Runner) (*Result, error) {
		return r.Run(profile, cfg, scale, seed)
	})
}

// RunProgram executes an instantiated program. The rng must be dedicated
// to this run; all component substreams are split from it. The program is
// only read, so it can be replayed any number of times, concurrently too.
func RunProgram(prog *workload.Program, cfg Config, rng *randx.Rand) (*Result, error) {
	return pooledRun(func(r *Runner) (*Result, error) {
		return r.RunProgram(prog, cfg, rng)
	})
}

// build allocates every structure that depends only on the configuration:
// caches, directory, interconnect, DRAM, predictors, TLBs, core contexts.
// It is the expensive half of machine construction; a pooled Runner calls
// it once per configuration and replays only initRun for subsequent runs.
//
// When the Config changes, the caches and the directory of the machine
// being replaced hand their arrays to the new ones (cache.New and
// coherence.NewWithProtocol state when), so an arena that switches
// between a few Configs stops allocating after it has seen each. The
// arrays are reset exactly as same-Config reuse resets them, so the
// result is the one a fresh arena gives.
func (m *machine) build(cfg Config) error {
	old := *m
	*m = machine{
		cfg:      cfg,
		locks:    make(map[int]*lockSt),
		barriers: make(map[int]*barrierSt),
		queues:   make(map[int]*queueSt),
	}
	policy := cache.LRU
	switch cfg.ReplacementPolicy {
	case "fifo":
		policy = cache.FIFO
	case "random":
		policy = cache.Random
	}
	var err error
	for c := 0; c < cfg.Cores; c++ {
		l1i, err := cache.New(cache.Config{Name: fmt.Sprintf("l1i%d", c),
			SizeBytes: cfg.L1ISize, Ways: cfg.L1IWays, BlockSize: cfg.BlockSize, Policy: policy}, cacheAt(old.l1i, c))
		if err != nil {
			return err
		}
		l1d, err := cache.New(cache.Config{Name: fmt.Sprintf("l1d%d", c),
			SizeBytes: cfg.L1DSize, Ways: cfg.L1DWays, BlockSize: cfg.BlockSize, Policy: policy}, cacheAt(old.l1d, c))
		if err != nil {
			return err
		}
		m.l1i = append(m.l1i, l1i)
		m.l1d = append(m.l1d, l1d)
		if cfg.BPKind == "gshare" {
			m.bp = append(m.bp, cpu.NewGshare(cfg.BPEntries, cfg.BPHistoryBits))
		} else {
			m.bp = append(m.bp, cpu.NewBranchPredictor(cfg.BPEntries))
		}
		tlb, err := cpu.NewTLB(cfg.TLBEntries, cfg.PageSize)
		if err != nil {
			return err
		}
		m.tlb = append(m.tlb, tlb)
	}
	m.cores = make([]coreCtx, cfg.Cores)
	m.wakeAt = make([]uint64, cfg.Cores)
	m.l2, err = cache.New(cache.Config{Name: "l2",
		SizeBytes: cfg.L2Size, Ways: cfg.L2Ways, BlockSize: cfg.BlockSize, Policy: policy}, old.l2)
	if err != nil {
		return err
	}
	proto := coherence.MESI
	if cfg.CoherenceProtocol == "msi" {
		proto = coherence.MSI
	}
	m.dir, err = coherence.NewWithProtocol(cfg.Cores, proto, old.dir)
	if err != nil {
		return err
	}
	m.xbar, err = noc.New(cfg.Cores, cfg.L2Banks, cfg.NocHopLatency, cfg.LinkBytes)
	if err != nil {
		return err
	}
	// The per-run jitter stream is installed by initRun's dram.Reset; the
	// placeholder here never draws.
	m.dram, err = mem.New(mem.Config{
		BaseLatency: cfg.MemLatency,
		Jitter:      jitterKind(cfg.JitterMax),
		JitterMax:   maxInt(cfg.JitterMax, 0),
	}, randx.New(0))
	return err
}

// cacheAt returns caches[i], or nil past the end: a machine with more
// cores than the one it replaces builds its extra L1s from scratch.
func cacheAt(caches []*cache.Cache, i int) *cache.Cache {
	if i < len(caches) {
		return caches[i]
	}
	return nil
}

// initRun readies a built machine for one run of prog on rng: components
// back to their freshly built state, per-run RNG streams split in a fixed
// order, per-run state rebuilt. It is the single code path for both
// freshly built and reused machines, so reuse cannot diverge from a cold
// construction.
func (m *machine) initRun(prog *workload.Program, rng *randx.Rand) error {
	cfg := &m.cfg
	m.prog = prog
	m.noiseRng = rng.Split(11)

	for c := 0; c < cfg.Cores; c++ {
		m.l1i[c].Reset()
		m.l1d[c].Reset()
		m.bp[c].Reset()
		m.tlb[c].Reset()
		core := &m.cores[c]
		core.id = c
		core.thread = -1
		core.quantumEnd = 0
		core.lastThread = -1
		core.outstanding = core.outstanding[:0]
	}
	m.l2.Reset()
	m.dir.Reset()
	m.xbar.Reset()
	m.dram.Reset(rng.Split(12))

	if cap(m.threads) < len(prog.Threads) {
		m.threads = make([]threadCtx, len(prog.Threads))
	}
	m.threads = m.threads[:len(prog.Threads)]
	m.replay.Reset(prog)
	for id := range prog.Threads {
		m.threads[id] = threadCtx{
			id: id, state: tsReady, lastCore: -1,
			fetchPC: 0x100000 + uint64(id)*0x4000,
		}
	}
	clear(m.locks)
	clear(m.barriers)
	clear(m.queues)
	for _, q := range prog.Queues {
		if q.Capacity < 1 {
			return fmt.Errorf("sim: queue %d capacity %d", q.ID, q.Capacity)
		}
		m.queues[q.ID] = &queueSt{capacity: q.Capacity}
	}
	for _, b := range prog.Barriers {
		if b.Participants < 1 || b.Participants > len(prog.Threads) {
			return fmt.Errorf("sim: barrier %d participants %d", b.ID, b.Participants)
		}
		m.barriers[b.ID] = &barrierSt{participants: b.Participants}
	}

	// Per-run colocation decision (hardware-like configs only).
	m.colocActive, m.colocSlow = false, 0
	if cfg.ColocationProb > 0 && m.noiseRng.Bernoulli(cfg.ColocationProb) {
		m.colocActive = true
		m.colocSlow = cfg.ColocationFactor
	}

	m.kernelPtr = 0

	// Per-run address-space layout: each mapping (the shared region and
	// every thread-private region) lands at its own random page-aligned
	// offset, as under ASLR. All threads share one layout, so shared data
	// stays shared.
	aslrRng := rng.Split(13)
	if cap(m.aslr) < 1+len(prog.Threads) {
		m.aslr = make([]uint64, 1+len(prog.Threads))
	}
	m.aslr = m.aslr[:1+len(prog.Threads)]
	if cfg.ASLRPages > 0 {
		for i := range m.aslr {
			m.aslr[i] = uint64(aslrRng.Intn(cfg.ASLRPages)) * uint64(cfg.PageSize)
		}
	} else {
		clear(m.aslr)
	}

	initTemp := cfg.Thermal.Ambient
	if cfg.Thermal.Enabled && cfg.Thermal.InitSpread > 0 {
		initTemp += rng.Split(14).Uniform(0, cfg.Thermal.InitSpread)
	}
	if m.thermal == nil {
		m.thermal = &thermalModel{}
	}
	m.thermal.init(cfg.Thermal, initTemp)
	if m.tracer == nil {
		m.tracer = &tracer{}
	}
	m.tracer.init(cfg.SampleInterval, m)

	m.ready = m.ready[:0]
	m.armed = 0
	m.now = 0
	m.finished = 0
	m.instructions = 0
	m.computeCycles = 0
	m.busyCycles = 0
	m.mispredictCost = 0
	m.loads = 0
	m.loadLatencySum = 0
	m.loadLatencyMax = 0
	m.ctxSwitches = 0
	m.migrations = 0
	m.preemptions = 0
	m.osNoiseEvents = 0
	m.syncWaitCycles = 0
	m.prefetches = 0
	return nil
}

func jitterKind(jitterMax int) mem.JitterKind {
	if jitterMax < 0 {
		return mem.JitterNone
	}
	return mem.JitterUniform
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// run drives the event loop to completion.
func (m *machine) run() error {
	// Initial placement: threads fill cores in id order; the rest queue.
	for i := range m.threads {
		m.ready = append(m.ready, m.threads[i].id)
	}
	for i := range m.cores {
		if len(m.ready) == 0 {
			break
		}
		m.dispatch(&m.cores[i], 0)
	}

	for m.armed != 0 {
		c, at := m.next()
		if at > m.cfg.MaxCycles {
			return fmt.Errorf("sim: %q exceeded cycle budget %d", m.prog.Name, m.cfg.MaxCycles)
		}
		if at > m.now {
			m.now = at
			m.tracer.advance(m.now)
		}
		m.step(&m.cores[c], at)
	}
	if m.finished != len(m.threads) {
		return fmt.Errorf("sim: deadlock in %q: %d/%d threads finished at cycle %d",
			m.prog.Name, m.finished, len(m.threads), m.now)
	}
	m.tracer.finish(m.now)
	return nil
}

// step lets the thread on core execute its next operation at time now.
func (m *machine) step(core *coreCtx, now uint64) {
	if core.thread < 0 {
		// Idle activation: grab ready work if any appeared.
		if len(m.ready) > 0 {
			m.dispatch(core, now)
		}
		return
	}
	t := &m.threads[core.thread]

	// Preempt at quantum expiry when someone is waiting.
	if now >= core.quantumEnd && len(m.ready) > 0 {
		now = m.fence(core, now)
		m.preemptions++
		t.state = tsReady
		t.lastCore = core.id
		m.ready = append(m.ready, t.id)
		core.thread = -1
		m.dispatch(core, now)
		return
	}

	op, ok := m.replay.Next(t.id)
	if !ok {
		now = m.fence(core, now)
		t.state = tsDone
		m.finished++
		core.thread = -1
		if len(m.ready) > 0 {
			m.dispatch(core, now)
		}
		return
	}

	switch op.Kind() {
	case workload.OpCompute:
		d := m.scaledCompute(core.id, op.Cycles())
		if m.cfg.OSNoiseRate > 0 && m.noiseRng.Bernoulli(m.cfg.OSNoiseRate) {
			d += uint64(m.noiseRng.Exponential(1.0/float64(m.cfg.OSNoiseCycles))) + 1
			m.osNoiseEvents++
		}
		d = m.dilate(core.id, d)
		m.instructions += op.Instrs()
		m.computeCycles += d
		m.busyFor(core, now, d)

	case workload.OpBranch:
		m.instructions++
		d := uint64(1) + m.ifetch(core.id, op.PC(), now)
		if m.bp[core.id].Predict(op.PC(), op.Taken()) {
			d += m.cfg.MispredictPenalty
			m.mispredictCost += m.cfg.MispredictPenalty
		}
		m.busyFor(core, now, m.dilate(core.id, d))

	case workload.OpLoad, workload.OpStore:
		m.instructions++
		write := op.Kind() == workload.OpStore
		d := m.ifetch(core.id, t.fetchPC, now)
		// Walk the thread's code footprint (16 KB, fits the L1I after
		// warmup) rather than an unbounded stream.
		t.fetchPC = (t.fetchPC &^ 0x3FFF) | ((t.fetchPC + 64) & 0x3FFF)
		// Issue under the MSHR window: a full window stalls until the
		// earliest in-flight access returns.
		stallUntil := m.issueMem(core, now+d, 0)
		lat := m.dataAccess(core.id, op.Addr()+m.aslr[workload.RegionIndex(op.Addr())], write, stallUntil)
		core.outstanding[len(core.outstanding)-1] = stallUntil + lat
		if !write {
			m.loads++
			m.loadLatencySum += lat
			if lat > m.loadLatencyMax {
				m.loadLatencyMax = lat
			}
		}
		// The core itself is only busy for the issue overhead; the access
		// completes in the background (value dependencies not modeled).
		issueCost := (stallUntil - now) + m.cfg.L1Latency
		m.busyFor(core, now, m.dilate(core.id, issueCost))

	case workload.OpLock:
		m.instructions++
		now = m.fence(core, now)
		l := m.lock(op.ID())
		if l.owner < 0 {
			l.owner = t.id
			m.busyFor(core, now, m.cfg.LockLatency)
			return
		}
		l.waiters = append(l.waiters, t.id)
		m.block(core, t, now)

	case workload.OpUnlock:
		m.instructions++
		now = m.fence(core, now)
		l := m.lock(op.ID())
		if len(l.waiters) > 0 {
			next := l.waiters[0]
			l.waiters = l.waiters[1:]
			l.owner = next
			m.wake(next, now+m.cfg.LockLatency)
		} else {
			l.owner = -1
		}
		m.busyFor(core, now, m.cfg.UnlockLatency)

	case workload.OpBarrier:
		m.instructions++
		now = m.fence(core, now)
		b, ok := m.barriers[op.ID()]
		if !ok {
			// Undeclared barrier: treat as all-threads.
			b = &barrierSt{participants: len(m.threads)}
			m.barriers[op.ID()] = b
		}
		if len(b.waiting)+1 >= b.participants {
			for _, w := range b.waiting {
				m.wake(w, now+m.cfg.BarrierLatency)
			}
			b.waiting = b.waiting[:0]
			m.busyFor(core, now, m.cfg.BarrierLatency)
			return
		}
		b.waiting = append(b.waiting, t.id)
		m.block(core, t, now)

	case workload.OpProduce:
		m.instructions++
		now = m.fence(core, now)
		q := m.queue(op.ID())
		// A consumer blocked on empty takes the item directly.
		if len(q.emptyWait) > 0 {
			c := q.emptyWait[0]
			q.emptyWait = q.emptyWait[1:]
			m.wake(c, now+m.cfg.QueueOpLatency)
			m.busyFor(core, now, m.cfg.QueueOpLatency)
			return
		}
		if q.occupancy < q.capacity {
			q.occupancy++
			m.busyFor(core, now, m.cfg.QueueOpLatency)
			return
		}
		q.fullWait = append(q.fullWait, t.id)
		m.block(core, t, now)

	case workload.OpConsume:
		m.instructions++
		now = m.fence(core, now)
		q := m.queue(op.ID())
		if q.occupancy > 0 {
			q.occupancy--
			// A producer blocked on full can now deposit its item.
			if len(q.fullWait) > 0 {
				p := q.fullWait[0]
				q.fullWait = q.fullWait[1:]
				q.occupancy++
				m.wake(p, now+m.cfg.QueueOpLatency)
			}
			m.busyFor(core, now, m.cfg.QueueOpLatency)
			return
		}
		q.emptyWait = append(q.emptyWait, t.id)
		m.block(core, t, now)

	default:
		// Unknown op kinds are a programming error in the workload.
		panic(fmt.Sprintf("sim: unknown op kind %d", op.Kind()))
	}
}

func (m *machine) lock(id int) *lockSt {
	l, ok := m.locks[id]
	if !ok {
		l = &lockSt{owner: -1}
		m.locks[id] = l
	}
	return l
}

func (m *machine) queue(id int) *queueSt {
	q, ok := m.queues[id]
	if !ok {
		q = &queueSt{capacity: 1}
		m.queues[id] = q
	}
	return q
}

// next pops the pending activation with the lowest (time, core): armed
// slots are scanned in core order and only a strictly earlier time
// displaces the best so far.
func (m *machine) next() (core int, at uint64) {
	core = bits.TrailingZeros64(m.armed)
	at = m.wakeAt[core]
	for rest := m.armed & (m.armed - 1); rest != 0; rest &= rest - 1 {
		if c := bits.TrailingZeros64(rest); m.wakeAt[c] < at {
			core, at = c, m.wakeAt[c]
		}
	}
	m.armed &^= 1 << core
	return core, at
}

// continueAt schedules the core's next activation. A second pending
// activation on one core is a scheduler bug, like an unknown op kind.
func (m *machine) continueAt(core *coreCtx, at uint64) {
	if m.armed&(1<<core.id) != 0 {
		panic(fmt.Sprintf("sim: core %d already has an activation pending at cycle %d", core.id, m.wakeAt[core.id]))
	}
	m.armed |= 1 << core.id
	m.wakeAt[core.id] = at
}

// busyFor accounts d busy cycles on the core and schedules its next
// activation at now+d. Busy time drives the thermal model's activity.
func (m *machine) busyFor(core *coreCtx, now, d uint64) {
	m.busyCycles += d
	m.continueAt(core, now+d)
}

// fence waits for every outstanding memory access on the core to complete
// (memory-fence semantics at synchronization points and scheduling events)
// and returns the fenced time.
func (m *machine) fence(core *coreCtx, now uint64) uint64 {
	for _, done := range core.outstanding {
		if done > now {
			now = done
		}
	}
	core.outstanding = core.outstanding[:0]
	return now
}

// issueMem issues one memory access under the MSHR window: if the window
// is full the core first waits for the earliest in-flight access. It
// returns the issue time and records the access's completion.
func (m *machine) issueMem(core *coreCtx, now uint64, lat uint64) (issuedAt uint64) {
	if len(core.outstanding) >= m.cfg.MSHRs {
		earliestIdx := 0
		for i, done := range core.outstanding {
			if done < core.outstanding[earliestIdx] {
				earliestIdx = i
			}
		}
		if e := core.outstanding[earliestIdx]; e > now {
			now = e
		}
		core.outstanding = append(core.outstanding[:earliestIdx], core.outstanding[earliestIdx+1:]...)
	}
	core.outstanding = append(core.outstanding, now+lat)
	return now
}

// block parks the running thread and reassigns its core.
func (m *machine) block(core *coreCtx, t *threadCtx, now uint64) {
	t.state = tsBlocked
	t.blockedAt = now
	t.lastCore = core.id
	core.thread = -1
	if len(m.ready) > 0 {
		m.dispatch(core, now)
	}
}

// wake marks a blocked thread runnable at time at, dispatching it onto an
// idle core (preferring its previous core for affinity) or queueing it.
func (m *machine) wake(tid int, at uint64) {
	t := &m.threads[tid]
	t.lockWait += at - t.blockedAt
	m.syncWaitCycles += at - t.blockedAt
	t.state = tsReady
	// Prefer the thread's previous core when idle.
	if t.lastCore >= 0 && m.cores[t.lastCore].thread < 0 {
		m.ready = append(m.ready, tid)
		m.dispatch(&m.cores[t.lastCore], at)
		return
	}
	for i := range m.cores {
		if m.cores[i].thread < 0 {
			m.ready = append(m.ready, tid)
			m.dispatch(&m.cores[i], at)
			return
		}
	}
	m.ready = append(m.ready, tid)
}

// dispatch pulls the next ready thread onto the core at time now, charging
// context-switch and migration costs.
func (m *machine) dispatch(core *coreCtx, now uint64) {
	if len(m.ready) == 0 {
		return
	}
	tid := m.ready[0]
	m.ready = m.ready[1:]
	t := &m.threads[tid]
	t.state = tsRunning
	core.thread = tid

	cost := uint64(0)
	if core.lastThread != tid {
		cost += m.cfg.CtxSwitchCost
		m.ctxSwitches++
		m.tlb[core.id].Flush()
		if t.lastCore >= 0 && t.lastCore != core.id {
			m.migrations++
			m.l1d[core.id].FlushRatio(m.cfg.MigrationFlush)
		}
		// Kernel scheduler code and data stream through the shared L2
		// (full-system effect: Table 2 simulates Ubuntu). This is what
		// couples scheduling decisions to the L2 miss metrics.
		const kernelBase = 0x8000_0000
		for i := 0; i < m.cfg.CtxSwitchKernelBlocks; i++ {
			blk := kernelBase + (m.kernelPtr % (512 << 10))
			if !m.l2Access(blk, i%4 == 0) {
				m.dram.Access(blk, now)
			}
			m.kernelPtr += 64
		}
	}
	core.lastThread = tid
	t.lastCore = core.id
	core.quantumEnd = now + cost + m.cfg.SchedQuantum
	m.continueAt(core, now+cost)
}

// scaledCompute applies the thermal speed factor to a compute burst.
func (m *machine) scaledCompute(coreID int, cycles uint64) uint64 {
	speed := m.thermal.speed()
	if speed <= 0 {
		speed = 0.01
	}
	d := uint64(float64(cycles) / speed)
	if d < 1 {
		d = 1
	}
	_ = coreID
	return d
}

// dilate stretches an op's duration on cores time-shared with a colocated
// process: the co-runner steals a fixed fraction of the core, so every
// cycle of our work takes 1/factor wall cycles.
func (m *machine) dilate(coreID int, d uint64) uint64 {
	if m.colocActive && coreID < m.cfg.ColocCores {
		d = uint64(float64(d)/m.colocSlow) + 1
	}
	return d
}

// l2Access runs an L2 lookup/insert, keeping the directory and the private
// L1s consistent with the L2's inclusion property: a displaced block is
// dropped from the directory and back-invalidated everywhere.
func (m *machine) l2Access(block uint64, write bool) (hit bool) {
	res := m.l2.Access(block, write)
	if res.Evicted {
		holders, _ := m.dir.DropBlock(res.EvictedAddr)
		for _, h := range holders {
			m.l1d[h].Invalidate(res.EvictedAddr)
		}
	}
	return res.Hit
}

// ifetch charges the instruction-fetch path: L1I hit is free (overlapped),
// an L1I miss costs an L2 round trip.
func (m *machine) ifetch(coreID int, pc uint64, now uint64) uint64 {
	if m.l1i[coreID].Access(pc, false).Hit {
		return 0
	}
	// Instruction blocks are read-only: skip the directory, charge the
	// crossbar and L2 (or memory on a cold miss).
	bank := int((pc >> 6) % uint64(m.cfg.L2Banks))
	done := m.xbar.Transfer(coreID, bank, now, 16)
	d := done - now
	if m.l2Access(m.l2.BlockAddr(pc), false) {
		return d + m.cfg.L2Latency
	}
	memDone := m.dram.Access(m.l2.BlockAddr(pc), now+d+m.cfg.L2Latency)
	return memDone - now
}

// dataAccess walks addr through the TLB, L1D, the MESI directory, the
// crossbar, L2 and DRAM, charging coherence actions, and returns the
// access latency.
func (m *machine) dataAccess(coreID int, addr uint64, write bool, now uint64) uint64 {
	cfg := &m.cfg
	l1 := m.l1d[coreID]
	block := l1.BlockAddr(addr)
	d := cfg.L1Latency

	// Address translation precedes the cache lookup; a TLB miss costs a
	// page-table walk.
	if m.tlb[coreID].Lookup(addr) {
		d += cfg.TLBWalkLatency
	}

	res := l1.Access(addr, write)

	// Keep the directory in sync with L1 displacement.
	if res.Evicted {
		if m.dir.Evict(coreID, res.EvictedAddr) {
			// Dirty displacement writes back into the L2.
			m.l2Access(res.EvictedAddr, true)
		}
	}

	// Consult the directory. Even on an L1 hit a write may need to
	// invalidate remote sharers (S→M upgrade).
	var act coherence.Action
	if write {
		act = m.dir.Write(coreID, block)
	} else {
		act = m.dir.Read(coreID, block)
	}
	for _, victim := range act.InvalidatedCores {
		m.l1d[victim].Invalidate(block)
	}
	if act.OwnerWriteback {
		m.l1d[act.OwnerCore].Invalidate(block)
		m.l2Access(block, true) // owner's dirty data lands in the L2
		d += cfg.OwnerForwardFee
	}
	if act.Invalidated > 0 || act.Upgrade {
		// Upgrade transactions round-trip the directory even without
		// remote copies to invalidate (the MSI tax; in MESI only genuinely
		// Shared lines pay it).
		d += cfg.InvalidateCost
	}

	if res.Hit && !act.WasMiss {
		return d // pure L1 hit (possibly with upgrade costs above)
	}

	// Miss path: request over the crossbar to the home L2 bank.
	bank := int((block >> 6) % uint64(cfg.L2Banks))
	reqDone := m.xbar.Transfer(coreID, bank, now+d, 16)
	d = reqDone - now

	l2hit := m.l2Access(block, write)
	d += cfg.L2Latency
	if !l2hit {
		memDone := m.dram.Access(block, now+d)
		d = memDone - now
	}

	// Next-line prefetch into the L2, off the critical path: the demand
	// miss's latency is unchanged, but the following block becomes an L2
	// hit for a future access.
	if cfg.PrefetchNextLine {
		next := block + uint64(cfg.BlockSize)
		if !m.l2Access(next, false) {
			m.dram.Access(next, now+d)
		}
		m.prefetches++
	}

	// Data response: 64-byte block back over the crossbar (modeled as an
	// extra serialization of the block's flits from the bank).
	d += uint64(cfg.BlockSize/cfg.LinkBytes) + cfg.NocHopLatency
	return d
}
