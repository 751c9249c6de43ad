package ci

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/randx"
	"repro/internal/stats"
)

// resampleChunk is how many consecutive resamples a worker claims per atomic
// fetch: small enough to balance across workers, large enough to amortize
// the counter traffic.
const resampleChunk = 32

// floatsPool recycles the scratch slices of the bootstrap kernel (resample
// buffers and theta arrays) so steady-state CI construction allocates
// nothing per call beyond the returned interval.
var floatsPool = sync.Pool{New: func() any { return new([]float64) }}

// getFloats returns a length-n slice backed by pooled storage.
func getFloats(n int) *[]float64 {
	p := floatsPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// putFloats returns a slice obtained from getFloats to the pool.
func putFloats(p *[]float64) { floatsPool.Put(p) }

// bootstrapDistribution draws b resamples (with replacement) from the
// ascending-sorted sample and returns the sorted F-quantile statistics in a
// pooled slice the caller must release with putFloats.
//
// Determinism contract (DESIGN.md): resample i draws every index from its
// own substream root.Split(i), root = randx.New(seed), so thetas[i] is a
// pure function of (sorted, f, seed, i) — never of scheduling. The workers
// parameter (0 = GOMAXPROCS, 1 = sequential) and GOMAXPROCS change only
// wall-clock time; the output is byte-identical for every setting, which
// TestBootstrapParallelByteIdentical pins. Each resample statistic is the
// exact k-th order statistic extracted by quickselect — identical to
// sorting the resample — and each worker reuses one buffer and one
// stack-resident Rand, so the B-loop itself is allocation-free.
func bootstrapDistribution(sorted []float64, f float64, b int, seed uint64, workers int) *[]float64 {
	n := len(sorted)
	thetasp := getFloats(b)
	thetas := *thetasp
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > b {
		workers = b
	}
	root := randx.New(seed)
	fill := func(lo, hi int, buf []float64, r *randx.Rand) {
		for i := lo; i < hi; i++ {
			root.SplitInto(uint64(i), r)
			for j := range buf {
				buf[j] = sorted[r.Intn(n)]
			}
			thetas[i] = stats.QuantileSelect(buf, f)
		}
	}
	if workers <= 1 {
		bufp := getFloats(n)
		var r randx.Rand
		fill(0, b, *bufp, &r)
		putFloats(bufp)
	} else {
		var next int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bufp := getFloats(n)
				defer putFloats(bufp)
				var r randx.Rand
				for {
					lo := int(atomic.AddInt64(&next, resampleChunk)) - resampleChunk
					if lo >= b {
						return
					}
					hi := lo + resampleChunk
					if hi > b {
						hi = b
					}
					fill(lo, hi, *bufp, &r)
				}
			}()
		}
		wg.Wait()
	}
	sort.Float64s(thetas)
	return thetasp
}

// jackknifeAcceleration computes BCa's acceleration statistic for the
// F-quantile over the ascending-sorted sample, incrementally: the
// leave-one-out quantile takes only two distinct values — with
// k = stats.QuantileIndex(F, n−1), dropping a sorted position j < k
// shifts the order statistic up to sorted[k], while dropping j ≥ k leaves it
// at sorted[k−1] — so the jackknife moments are closed forms over those two
// values instead of n re-sorted leave-one-out passes. The jackknife sums are
// permutation-invariant, so iterating in sorted order is exactly the
// classical per-left-out-sample definition.
//
// The boolean reports whether the acceleration is defined; false reproduces
// BCa's duplicate-data failure (all leave-one-out statistics identical).
func jackknifeAcceleration(sorted []float64, f float64) (a float64, ok bool) {
	n := len(sorted)
	k := stats.QuantileIndex(f, n-1)
	dropBelow := sorted[k]   // statistic when a position j < k is left out (shifts up)
	dropAbove := sorted[k-1] // statistic when a position j ≥ k is left out (stays)
	cBelow := float64(k)
	cAbove := float64(n - k)
	jackMean := (cBelow*dropBelow + cAbove*dropAbove) / float64(n)
	dBelow := jackMean - dropBelow
	dAbove := jackMean - dropAbove
	num := cBelow*dBelow*dBelow*dBelow + cAbove*dAbove*dAbove*dAbove
	den := cBelow*dBelow*dBelow + cAbove*dAbove*dAbove
	if den == 0 {
		return 0, false
	}
	return num / (6 * math.Pow(den, 1.5)), true
}
