package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/randx"
	"repro/internal/workload"
)

// Runner is a reusable simulation arena: the machine built for the first
// run — caches, directory, interconnect, predictors, core contexts, event
// queue — is reset in place and reused for subsequent runs with the same
// Config, instead of being reallocated per run. A run with another Config
// builds a new machine that takes over the old one's cache and directory
// arrays where they fit (see machine.build). A Runner is stateful and
// must not be used from multiple goroutines concurrently; callers that
// simulate in parallel hold one Runner per goroutine (population.Executor)
// or rely on the free list behind the package-level Run, which hands each
// goroutine its own arena.
//
// Reuse is byte-identical to cold construction: fresh and reused machines
// share the single initRun code path, so every run sees the same initial
// state and the same RNG substreams regardless of what ran before.
type Runner struct {
	m     machine
	built bool
}

// NewRunner returns an empty arena; the first Run populates it.
func NewRunner() *Runner { return &Runner{} }

// Run is sim.Run on this arena.
func (r *Runner) Run(profile string, cfg Config, scale float64, seed uint64) (*Result, error) {
	return r.RunVariant(profile, cfg, scale, defaultProgSeed, seed)
}

// RunVariant is Run with an explicit program-structure seed, for studies
// that also want distinct program instances (e.g. different inputs). It
// replays the program from the process-wide program cache.
func (r *Runner) RunVariant(profile string, cfg Config, scale float64, progSeed, seed uint64) (*Result, error) {
	prog, err := cachedProgram(profile, scale, progSeed)
	if err != nil {
		return nil, err
	}
	return r.RunProgram(prog, cfg, randx.New(seed))
}

// RunProgram is sim.RunProgram on this arena. A config change rebuilds the
// machine, recycling its cache and directory arrays; otherwise the
// existing structures are reset and reused.
func (r *Runner) RunProgram(prog *workload.Program, cfg Config, rng *randx.Rand) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(prog.Threads) == 0 {
		return nil, fmt.Errorf("sim: program %q has no threads", prog.Name)
	}
	if !r.built || r.m.cfg != cfg {
		r.built = false
		if err := r.m.build(cfg); err != nil {
			return nil, err
		}
		r.built = true
	}
	if err := r.m.initRun(prog, rng); err != nil {
		return nil, err
	}
	if err := r.m.run(); err != nil {
		return nil, err
	}
	return r.m.result(), nil
}

// maxCachedOps caps the program cache at 24 MB of ops. The nine profiles
// take 49 548 ops at scale 0.05 and 966 936 at scale 1.0, so either suite
// fits.
const maxCachedOps = 1 << 20

// programKey is what a built profile is a pure function of. The scale is
// keyed by its bits, so a NaN scale matches itself.
type programKey struct {
	profile  string
	scale    uint64
	progSeed uint64
}

// programs holds every built profile of the process, shared read-only by
// all arenas, and ops counts their ops. When a new program would push ops
// past maxCachedOps every built program is dropped before it is stored,
// so a program larger than the cap is kept alone until the next key
// arrives. Since a program depends only on its key, eviction never
// changes a result. A key's entry is stored when its build starts, so
// arenas that miss it meanwhile wait for that one build, as popcache's
// flights do; builds counts the builds started.
var programs = struct {
	sync.Mutex
	byKey  map[programKey]*programEntry
	ops    int
	builds int
}{byKey: make(map[programKey]*programEntry)}

// programEntry is one key's build: prog and err are set before done is
// closed, and prog is set under programs' lock, so the eviction scan can
// tell a built entry from one in flight.
type programEntry struct {
	done chan struct{}
	prog *workload.Program
	err  error
}

// cachedProgram returns the named profile built at scale from progSeed.
func cachedProgram(profile string, scale float64, progSeed uint64) (*workload.Program, error) {
	key := programKey{profile, math.Float64bits(scale), progSeed}
	programs.Lock()
	e := programs.byKey[key]
	if e == nil {
		e = &programEntry{done: make(chan struct{})}
		programs.byKey[key] = e
		programs.builds++
		programs.Unlock()
		e.build(key, profile, scale, progSeed)
	} else {
		programs.Unlock()
		<-e.done
	}
	return e.prog, e.err
}

// build builds e's program and stores it, or, if the build fails or
// panics, removes e from the cache so the next call builds again. Either
// way it releases e's waiters.
func (e *programEntry) build(key programKey, profile string, scale float64, progSeed uint64) {
	defer func() {
		if e.prog == nil {
			if e.err == nil {
				e.err = fmt.Errorf("sim: building %s at scale %g panicked", profile, scale)
			}
			programs.Lock()
			delete(programs.byKey, key) // eviction drops only built entries
			programs.Unlock()
		}
		close(e.done)
	}()
	p, err := workload.ByName(profile)
	if err != nil {
		e.err = err
		return
	}
	prog := p.Build(scale, randx.New(progSeed))
	n := prog.Len()
	programs.Lock()
	defer programs.Unlock()
	if programs.ops+n > maxCachedOps {
		for k, kept := range programs.byKey {
			if kept.prog != nil {
				delete(programs.byKey, k)
			}
		}
		programs.ops = 0
	}
	programs.ops += n
	e.prog = prog
}

// idleRunners holds idle arenas for the package-level Run/RunProgram
// calls, so callers that simulate seed by seed — exp's ablation tables,
// the examples, run functions handed to core.CollectHooks — benefit from
// machine reuse without holding a Runner explicitly. Unlike a sync.Pool,
// a garbage collection does not empty it. It keeps at most GOMAXPROCS
// arenas, as many as can execute at once, which bounds the memory idle
// arenas hold. Population-scale callers run on a population.Executor
// instead.
var idleRunners = make(chan *Runner, runtime.GOMAXPROCS(0))

func pooledRun(f func(r *Runner) (*Result, error)) (*Result, error) {
	var r *Runner
	select {
	case r = <-idleRunners:
	default:
		r = NewRunner()
	}
	res, err := f(r)
	select {
	case idleRunners <- r:
	default:
	}
	return res, err
}
