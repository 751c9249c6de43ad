package sim

import (
	"fmt"
	"sync"

	"repro/internal/randx"
	"repro/internal/workload"
)

// Runner is a reusable simulation arena: the machine built for the first
// run — caches, directory, interconnect, predictors, core contexts, event
// queue — is reset in place and reused for subsequent runs with the same
// Config, instead of being reallocated per run. A Runner is stateful and
// must not be used from multiple goroutines concurrently; callers that
// simulate in parallel hold one Runner per goroutine (population.Executor)
// or rely on the pool behind the package-level Run, which hands each
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

// RunVariant is sim.RunVariant on this arena.
func (r *Runner) RunVariant(profile string, cfg Config, scale float64, progSeed, seed uint64) (*Result, error) {
	p, err := workload.ByName(profile)
	if err != nil {
		return nil, err
	}
	prog := p.Build(scale, randx.New(progSeed))
	return r.RunProgram(prog, cfg, randx.New(seed))
}

// RunProgram is sim.RunProgram on this arena. A config change rebuilds the
// machine; otherwise the existing structures are reset and reused.
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

// runnerPool recycles arenas across package-level Run/RunProgram calls, so
// callers that simulate seed by seed — exp's ablation tables, the
// examples, run functions handed to core.Collect — benefit from machine
// reuse without holding a Runner explicitly. Population-scale callers run
// on a population.Executor instead.
var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

func pooledRun(f func(r *Runner) (*Result, error)) (*Result, error) {
	r := runnerPool.Get().(*Runner)
	res, err := f(r)
	runnerPool.Put(r)
	return res, err
}
