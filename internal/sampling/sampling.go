// Package sampling provides variance-reduction collection designs for SPA
// campaigns: a two-phase stratified collector and a ranked-set-sampling
// (RSS) collector, both implementing core.DesignCollector.
//
// Both designs spend a cheap pilot pass (a down-scaled run of the same
// benchmark, or any deterministic proxy metric) to decide which seeds of
// the campaign range deserve a full-scale measurement. Because the proxy
// correlates with the measured metric, the selected sample is spread more
// evenly over the metric's distribution than an i.i.d.-style seed range,
// so the order-statistic confidence interval tightens in fewer full-scale
// runs. The selection depends only on pilot values — themselves
// seed-deterministic — so campaigns stay replicable: the same options and
// base seed always measure the same seeds in the same order, regardless
// of batch size or scheduling.
//
// A design-selected sample is not exchangeable with a plain one, so the
// plain Clopper–Pearson construction would be coverage-wrong on it. The
// collectors therefore carry their own estimator (see estimator.go): the
// satisfied count M(v) becomes a sum of per-unit satisfaction
// probabilities derived from each unit's rank or stratum — with the
// stratified sum conditioned on the shared pilot pool's composition, so
// the cutpoint-estimation error every unit shares is carried into the
// count's variance rather than silently ignored — tempered by a
// ranking-fidelity λ that is estimated from the measured data (and
// shrunk toward zero, the conservative direction) unless the caller
// fixes it. At λ = 0 the model degrades exactly to the plain binomial
// construction, which doubles as the infeasibility fallback.
package sampling

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/popcache"
)

// Design selects the variance-reduction sampling design.
type Design int

const (
	// Plain is the absence of a design: consecutive seeds, plain
	// estimator. New rejects it — callers use the backing collector
	// directly — but it exists so configuration surfaces can parse and
	// store "no design" uniformly.
	Plain Design = iota
	// Stratified runs a pilot pass, cuts the proxy distribution into
	// equal-probability strata, and draws full-scale measurements from
	// the strata under a proportional or Neyman allocation.
	Stratified
	// RSS is ranked-set sampling: each measured unit is chosen from its
	// own small set of piloted candidates by rank, cycling the rank
	// 1..k across units.
	RSS
)

// String implements fmt.Stringer; the forms round-trip through ParseDesign.
func (d Design) String() string {
	switch d {
	case Stratified:
		return "stratified"
	case RSS:
		return "rss"
	}
	return "plain"
}

// ParseDesign parses a configuration string into a Design. The empty
// string means Plain, so absent configuration keys need no special case.
func ParseDesign(s string) (Design, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "plain":
		return Plain, nil
	case "stratified":
		return Stratified, nil
	case "rss", "ranked-set", "ranked_set":
		return RSS, nil
	}
	return Plain, fmt.Errorf("sampling: unknown design %q (want plain, stratified or rss)", s)
}

// Allocation selects how the stratified design spreads measurements
// across strata.
type Allocation int

const (
	// Proportional cycles measurements through the strata in order, so
	// every stratum gets an equal share — the right default when nothing
	// is known about within-stratum variance.
	Proportional Allocation = iota
	// Neyman allocates proportionally to the within-stratum proxy
	// standard deviation estimated from the first pilot block, floored
	// so no stratum starves.
	Neyman
)

// String implements fmt.Stringer; the forms round-trip through
// ParseAllocation.
func (a Allocation) String() string {
	if a == Neyman {
		return "neyman"
	}
	return "proportional"
}

// ParseAllocation parses a configuration string into an Allocation; the
// empty string means Proportional.
func ParseAllocation(s string) (Allocation, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "proportional":
		return Proportional, nil
	case "neyman":
		return Neyman, nil
	}
	return Proportional, fmt.Errorf("sampling: unknown allocation %q (want proportional or neyman)", s)
}

// PilotFunc produces the pilot proxy values for n consecutive seeds
// rooted at baseSeed, ordered by seed offset. It must be deterministic in
// (baseSeed, n) — the design's seed selection is a pure function of its
// output. The collector only ever asks for block-aligned contiguous
// ranges, so implementations can serve them from a plain population
// cache (see popcache.Source.Pilot).
type PilotFunc func(baseSeed uint64, n int) ([]float64, error)

// DefaultStrata is the stratum count (stratified) or set size (RSS) when
// Options.Strata is zero. Four is small enough that ranking errors in the
// pilot stay forgiving, large enough to matter: at perfect fidelity it
// already cuts the median-estimation variance by more than half.
const DefaultStrata = 4

// maxStrata bounds the design order; beyond it the pilot cost per unit
// (RSS) or the cutpoint resolution demanded of one pilot block
// (stratified) stops being sensible.
const maxStrata = 64

// maxFidelity caps the ranking-fidelity λ. A perfect λ = 1 would let a
// single mis-ranked pilot break coverage; capping slightly below keeps a
// floor of plain-binomial behaviour in every unit.
const maxFidelity = 0.95

// Options configures a design collector.
type Options struct {
	// Design selects the sampling design; New rejects Plain.
	Design Design
	// Strata is the stratum count (stratified) or set size k (RSS);
	// zero selects DefaultStrata.
	Strata int
	// Allocation selects the stratified allocation rule; it must be
	// Proportional for RSS.
	Allocation Allocation
	// PilotBlock is how many pilot runs are fetched per PilotFunc call;
	// zero selects max(8·Strata, 32). The stratified design estimates
	// its cutpoints (and Neyman weights) from the first block, so the
	// block must hold at least two candidates per stratum.
	PilotBlock int
	// Fidelity fixes the ranking fidelity λ ∈ (0, maxFidelity] used by
	// the estimator; zero estimates it from the measured data each
	// round (shrunk Spearman correlation of proxy vs. measured value).
	Fidelity float64
	// Metric names the measured value vector in cached populations;
	// empty selects "value".
	Metric string
	// Cache, when non-nil, stores the cumulative measured population
	// after every collection round and serves later identical campaigns
	// (same Recipe, base seed and design knobs) without pilot or
	// full-scale runs.
	Cache *popcache.Cache
	// Recipe is the base cache key: Benchmark, Config, Scale,
	// PilotScale and ProxyMetric describe what the backing collector
	// and pilot actually run. The collector fills BaseSeed, Runs and
	// the design fields itself.
	Recipe popcache.Key
}

// Validate checks the options without building a collector, so
// configuration surfaces (manifests, service configs) can fail fast.
func (o Options) Validate() error {
	_, err := o.normalize()
	return err
}

// normalize applies defaults and validates; it returns the effective
// options.
func (o Options) normalize() (Options, error) {
	switch o.Design {
	case Stratified, RSS:
	case Plain:
		return o, errors.New("sampling: the plain design needs no design collector (use the backing collector directly)")
	default:
		return o, fmt.Errorf("sampling: unknown design %d", o.Design)
	}
	if o.Strata == 0 {
		o.Strata = DefaultStrata
	}
	if o.Strata < 2 || o.Strata > maxStrata {
		return o, fmt.Errorf("sampling: strata %d outside [2, %d]", o.Strata, maxStrata)
	}
	if o.Allocation != Proportional && o.Design != Stratified {
		return o, errors.New("sampling: allocation applies only to the stratified design")
	}
	if o.PilotBlock == 0 {
		o.PilotBlock = 8 * o.Strata
		if o.PilotBlock < 32 {
			o.PilotBlock = 32
		}
	}
	if o.PilotBlock < 2*o.Strata {
		return o, fmt.Errorf("sampling: pilot block %d below twice the strata count %d", o.PilotBlock, o.Strata)
	}
	// Rounding the block up to a multiple of Strata keeps the first
	// pool's rank bands integral, so each stratum starts with an equal
	// candidate share and the estimator's first-pool conditioning sees
	// balanced bands.
	if r := o.PilotBlock % o.Strata; r != 0 {
		o.PilotBlock += o.Strata - r
	}
	if !(o.Fidelity >= 0 && o.Fidelity <= maxFidelity) { // NaN fails both compares
		return o, fmt.Errorf("sampling: fidelity %v outside [0, %v]", o.Fidelity, maxFidelity)
	}
	if o.Metric == "" {
		o.Metric = "value"
	}
	return o, nil
}
