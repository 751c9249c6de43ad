package smc

import (
	"errors"
	"fmt"
)

// Hyperproperty support (paper Sec. 3.1, flagged as future work): whereas a
// property is evaluated on a single execution, a hyperproperty is evaluated
// on a k-tuple of executions taken together — e.g. "the runtimes of any two
// executions differ by less than a threshold". Statistically nothing
// changes: the truth value of the hyperproperty on an independently drawn
// tuple is still a Bernoulli sample, so the same Clopper–Pearson machinery
// applies with tuples as the sampling unit.

// HyperProperty is a predicate over a k-tuple of per-execution metric
// values.
type HyperProperty func(tuple []float64) bool

// CheckHyperFixed partitions values into consecutive disjoint k-tuples,
// evaluates the hyperproperty on each, and runs the fixed-sample test
// (Algorithm 2) on the outcomes. Disjoint tuples keep the samples
// independent, which the binomial analysis requires. Leftover values that
// do not fill a final tuple are discarded.
func CheckHyperFixed(values []float64, k int, hp HyperProperty, f, c float64) (Result, error) {
	if k < 2 {
		return Result{}, errors.New("smc: hyperproperty arity must be ≥ 2")
	}
	if len(values) < k {
		return Result{}, fmt.Errorf("smc: need at least %d values for arity-%d hyperproperty", k, k)
	}
	tuples := len(values) / k
	outcomes := make([]bool, tuples)
	for i := 0; i < tuples; i++ {
		outcomes[i] = hp(values[i*k : (i+1)*k])
	}
	return CheckFixed(outcomes, f, c)
}

// MaxPairwiseGapWithin returns a 2-ary hyperproperty that holds when the
// absolute difference of the two executions' metrics is at most eps — the
// paper's motivating example of studying "whether the performance of
// multiple executions will differ by less than a given threshold".
func MaxPairwiseGapWithin(eps float64) HyperProperty {
	return func(tuple []float64) bool {
		lo, hi := tuple[0], tuple[0]
		for _, v := range tuple[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi-lo <= eps
	}
}
