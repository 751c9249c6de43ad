package core

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// Collector abstracts where samples come from: a local RunFunc driven in
// parallel batches (FuncCollector), or a remote backend like
// internal/dist's coordinator, which shards the seed range across worker
// processes. The contract is CollectHooks's: exactly n samples for the seed
// range rooted at baseSeed, ordered by seed offset, with at most batch
// in flight where the backend honours it (remote backends may govern
// parallelism themselves — the bound can shift wall-clock time but never
// sample values). Hooks observe runs and must not affect results.
//
// Variance-reduction collectors (internal/sampling) relax "samples for
// seeds baseSeed+0 … baseSeed+n−1" to "samples for n deterministically
// design-selected seeds from the range rooted at baseSeed": which seeds
// get measured depends only on the design's pilot pass, never on
// scheduling, so replicability is preserved. Such collectors implement
// DesignCollector so the analysis uses their matched estimator.
type Collector interface {
	Collect(baseSeed uint64, n, batch int, h Hooks) ([]float64, error)
}

// DesignCollector is the optional Collector extension for sampling
// designs whose samples are not a plain i.i.d.-style seed range: the
// plain order-statistic construction (ConfidenceInterval) is not
// coverage-correct on design-selected samples, so the analysis entry
// points build the interval through the collector's own estimator
// instead.
type DesignCollector interface {
	Collector

	// DesignInterval builds the confidence interval matched to the
	// collector's sampling design over samples — exactly the cumulative
	// slice its Collect calls returned, in collection order.
	DesignInterval(samples []float64, p Params) (stats.Interval, error)

	// DesignMinSamples is the smallest sample count for which
	// DesignInterval can converge in both directions at p — the design's
	// analogue of CIMinSamples.
	DesignMinSamples(p Params) (int, error)
}

// FuncCollector adapts a RunFunc into the Collector the analysis entry
// points consume; Collect is exactly CollectHooks.
type FuncCollector RunFunc

// Collect implements Collector.
func (f FuncCollector) Collect(baseSeed uint64, n, batch int, h Hooks) ([]float64, error) {
	return CollectHooks(RunFunc(f), baseSeed, n, batch, h)
}

// errNilCollector reports an AnalyzeWith-style call without a backend.
var errNilCollector = errors.New("core: nil Collector")

// CollectionSizeError reports a Collector that returned a different
// number of samples than requested. The adaptive loop advances its seed
// cursor by the requested count, so a short (or long) collection would
// silently desynchronize the seed range from the sample count and
// corrupt campaign replicability; it is a backend contract violation,
// not a recoverable condition.
type CollectionSizeError struct {
	BaseSeed  uint64 // base seed of the offending Collect call
	Requested int    // samples asked for
	Returned  int    // samples the backend produced
}

// Error implements error.
func (e *CollectionSizeError) Error() string {
	return fmt.Sprintf("core: collector returned %d samples for %d requested at base seed %d",
		e.Returned, e.Requested, e.BaseSeed)
}

// designInterval builds the CI through the collector's matched estimator
// when it has one, and through the plain order-statistic construction
// otherwise. Analysis entry points must build every interval through
// this seam so a design-selected sample is never fed to the plain
// estimator.
func designInterval(c Collector, samples []float64, p Params) (stats.Interval, error) {
	if dc, ok := c.(DesignCollector); ok {
		return dc.DesignInterval(samples, p)
	}
	return ConfidenceInterval(samples, p)
}

// designMinSamples is CIMinSamples through the same seam.
func designMinSamples(c Collector, p Params) (int, error) {
	if dc, ok := c.(DesignCollector); ok {
		return dc.DesignMinSamples(p)
	}
	return CIMinSamples(p)
}
