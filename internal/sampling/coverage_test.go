package sampling

// Honest-coverage suite (paper Sec. 5.4 applied to the variance-reduction
// designs): the stratified and RSS estimators must keep the plain
// construction's guarantee — over repeated independent campaigns, the
// design-matched interval covers the population ground truth at least a
// fraction C of the time. Narrower intervals bought by giving up coverage
// would be a correctness bug, not an optimisation, so this suite measures
// empirical coverage against ground truth from an exhaustive population
// and fails when it drops below the nominal level by more than binomial
// noise.
//
// Cost control on the default `go test` path: three cheap profiles at
// tiny scale. The full sweep — every workload profile, the same 200
// replications — is the CI coverage-suite job's configuration:
//
//	SAMPLING_COVERAGE=all go test ./internal/sampling/ -run TestHonestCoverage
//
// SAMPLING_COVERAGE_REPS overrides the replication count (min 50 so the
// binomial tolerance stays meaningful).

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

const (
	// covScale is the full-fidelity simulation scale; covPilotScale is
	// the cheap proxy pass (half of it, the runner's default ratio).
	covScale      = 0.005
	covPilotScale = covScale / 2
	// covUnits is the fixed per-replication sample size — comfortably
	// above the design minimum (5 at F=0.5, C=0.9) but small enough
	// that coverage is a real test, not a foregone conclusion.
	covUnits = 24
	covF     = 0.5
	covC     = 0.9
	// covStride spaces replication base seeds so no two replications
	// share any pilot or full-run seed.
	covStride = 1 << 12
	// Ground truth comes from an exhaustive population far outside
	// every replication's seed range.
	covTruthRuns = 1200
	covTruthSeed = uint64(1) << 40
)

// coverageProfiles returns the workload set for the sweep: the three
// cheapest profiles by default, all of them when SAMPLING_COVERAGE=all.
func coverageProfiles() []string {
	if os.Getenv("SAMPLING_COVERAGE") == "all" {
		return workload.Names()
	}
	return []string{"swaptions", "streamcluster", "blackscholes"}
}

func coverageReps(t *testing.T) int {
	s := os.Getenv("SAMPLING_COVERAGE_REPS")
	if s == "" {
		return 200
	}
	r, err := strconv.Atoi(s)
	if err != nil || r < 50 {
		t.Fatalf("SAMPLING_COVERAGE_REPS=%q: want an integer ≥ 50", s)
	}
	return r
}

// simRunFunc measures one seed of the profile at the given scale.
func simRunFunc(bench string, cfg sim.Config, scale float64) core.RunFunc {
	return func(seed uint64) (float64, error) {
		res, err := sim.Run(bench, cfg, scale, seed)
		if err != nil {
			return 0, err
		}
		v, ok := res.Metric(sim.MetricRuntime)
		if !ok {
			return 0, fmt.Errorf("%s: no %s metric", bench, sim.MetricRuntime)
		}
		return v, nil
	}
}

// coverageOptions is the design configuration the whole suite uses: three
// groups keeps RSS pilot consumption at 3 per unit, and a 24-run pilot
// block is cutpoint material for stratified and exactly one replication's
// worth of RSS candidates.
func coverageOptions(d Design) Options {
	return Options{Design: d, Strata: 3, PilotBlock: 24}
}

// simPilot is a pilot pass over the down-scaled simulator, collected at
// the given batch bound.
func simPilot(bench string, cfg sim.Config, scale float64, batch int) PilotFunc {
	col := core.FuncCollector(simRunFunc(bench, cfg, scale))
	return func(baseSeed uint64, n int) ([]float64, error) {
		return col.Collect(baseSeed, n, batch, core.Hooks{})
	}
}

// coverageInterval runs one replication of the design at the base seed
// and returns its confidence interval.
func coverageInterval(bench string, cfg sim.Config, d Design, base uint64) (stats.Interval, error) {
	p := core.Params{F: covF, C: covC}
	full := core.FuncCollector(simRunFunc(bench, cfg, covScale))
	if d == Plain {
		samples, err := core.Collect(core.RunFunc(full), base, covUnits, 0)
		if err != nil {
			return stats.Interval{}, err
		}
		return core.ConfidenceInterval(samples, p)
	}
	c, err := New(coverageOptions(d), full, simPilot(bench, cfg, covPilotScale, 0))
	if err != nil {
		return stats.Interval{}, err
	}
	samples, err := c.Collect(base, covUnits, 0, core.Hooks{})
	if err != nil {
		return stats.Interval{}, err
	}
	return c.DesignInterval(samples, p)
}

// TestHonestCoverage is the suite: for every profile and design, the
// fraction of replications whose interval covers the exhaustive-population
// ground truth must not fall below C by more than two binomial standard
// errors. The whole computation is seed-deterministic — a failure here is
// reproducible, never flaky.
func TestHonestCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-replication sweep; skipped with -short")
	}
	reps := coverageReps(t)
	// Two-sided binomial noise floor at R replications: a true-coverage-C
	// estimator's empirical coverage stays above this with ~97.7%
	// probability, and the seeds are fixed so a pass is permanent.
	floor := covC - 2*math.Sqrt(covC*(1-covC)/float64(reps))
	cfg := sim.DefaultConfig()

	for _, bench := range coverageProfiles() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			pop, err := population.Generate(bench, cfg, covScale, covTruthRuns, covTruthSeed, 0)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := pop.GroundTruth(sim.MetricRuntime, covF)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []Design{Plain, Stratified, RSS} {
				d := d
				t.Run(d.String(), func(t *testing.T) {
					covered, width := coverageSweep(t, bench, cfg, d, reps, truth)
					rate := float64(covered) / float64(reps)
					t.Logf("%s/%s: coverage %.3f (floor %.3f), mean width %.3g, truth %.3g",
						bench, d, rate, floor, width, truth)
					if rate < floor {
						t.Errorf("%s/%s: empirical coverage %.3f < %.3f (nominal %.2f, %d reps)",
							bench, d, rate, floor, covC, reps)
					}
					if width <= 0 {
						t.Errorf("%s/%s: degenerate mean interval width %g", bench, d, width)
					}
				})
			}
		})
	}
}

// coverageSweep runs reps independent replications of the design and
// returns how many covered the truth, plus the mean interval width.
// Replications are spread over a worker pool; each replication's result
// depends only on its base seed, so the split is free of scheduling
// effects.
func coverageSweep(t *testing.T, bench string, cfg sim.Config, d Design, reps int, truth float64) (int, float64) {
	t.Helper()
	type out struct {
		iv  stats.Interval
		err error
	}
	results := make([]out, reps)
	idx := make(chan int)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > reps {
		workers = reps
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range idx {
				iv, err := coverageInterval(bench, cfg, d, uint64(r)*covStride)
				results[r] = out{iv, err}
			}
		}()
	}
	for r := 0; r < reps; r++ {
		idx <- r
	}
	close(idx)
	wg.Wait()

	covered, widthSum := 0, 0.0
	for r, res := range results {
		if res.err != nil {
			t.Fatalf("%s/%s rep %d: %v", bench, d, r, res.err)
		}
		if res.iv.Contains(truth) {
			covered++
		}
		widthSum += res.iv.Width()
	}
	return covered, widthSum / float64(reps)
}

// TestSamplingSchedulingIdentity pins the determinism contract across
// every execution-shape knob: for each profile and design, the sampled
// population is bit-identical whatever GOMAXPROCS and whatever batch
// bound drives the measurement pool. Seed selection happens before any
// parallel work, and measured values land at their unit index, so the
// schedule can shift wall-clock time but never a bit of output.
func TestSamplingSchedulingIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full profile sweep; skipped with -short")
	}
	const units = 16
	cfg := sim.DefaultConfig()
	oldProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(oldProcs)

	collect := func(bench string, d Design, batch int) ([]float64, Stats) {
		t.Helper()
		full := core.FuncCollector(simRunFunc(bench, cfg, covScale))
		c, err := New(coverageOptions(d), full, simPilot(bench, cfg, covPilotScale, batch))
		if err != nil {
			t.Fatal(err)
		}
		samples, err := c.Collect(1000, units, batch, core.Hooks{})
		if err != nil {
			t.Fatalf("%s/%s batch %d: %v", bench, d, batch, err)
		}
		return samples, c.Stats()
	}

	for _, bench := range workload.Names() {
		for _, d := range []Design{Stratified, RSS} {
			var ref []float64
			var refStats Stats
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for _, batch := range []int{1, 8} {
					samples, st := collect(bench, d, batch)
					if ref == nil {
						ref, refStats = samples, st
						continue
					}
					if st != refStats {
						t.Errorf("%s/%s procs %d batch %d: stats %+v, want %+v",
							bench, d, procs, batch, st, refStats)
					}
					for i := range ref {
						if math.Float64bits(samples[i]) != math.Float64bits(ref[i]) {
							t.Errorf("%s/%s procs %d batch %d: sample %d = %x, want %x",
								bench, d, procs, batch, i, math.Float64bits(samples[i]), math.Float64bits(ref[i]))
						}
					}
				}
			}
			runtime.GOMAXPROCS(oldProcs)
		}
	}
}
