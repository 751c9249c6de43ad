package ci

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/randx"
	"repro/internal/stats"
)

// referenceBootstrapThetas is an independent sequential implementation of
// the resampling contract: resample i draws every index from the substream
// root.Split(i) over the ascending-sorted sample, and the statistic is the
// inverted-CDF F-quantile of the fully sorted resample. bootstrapDistribution
// must reproduce these values bit for bit regardless of worker count.
func referenceBootstrapThetas(sorted []float64, f float64, b int, seed uint64) []float64 {
	n := len(sorted)
	root := randx.New(seed)
	thetas := make([]float64, b)
	buf := make([]float64, n)
	for i := 0; i < b; i++ {
		r := root.Split(uint64(i))
		for j := range buf {
			buf[j] = sorted[r.Intn(n)]
		}
		sort.Float64s(buf)
		thetas[i] = stats.QuantileSorted(buf, f)
	}
	sort.Float64s(thetas)
	return thetas
}

func lognormalSample(seed uint64, n int) []float64 {
	r := randx.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Exp(r.Normal(0, 0.2))
	}
	return xs
}

// TestBootstrapParallelByteIdentical pins the determinism contract: the
// bootstrap distribution (and the BCa interval built on it) is a pure
// function of (sample, f, B, seed) — the kernel's worker count and
// GOMAXPROCS change only scheduling, never a single output bit.
func TestBootstrapParallelByteIdentical(t *testing.T) {
	xs := lognormalSample(11, 200)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	const b, seed, f = 500, 99, 0.5
	want := referenceBootstrapThetas(sorted, f, b, seed)

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 1, 2, 8} {
			gotp := bootstrapDistribution(sorted, f, b, seed, workers)
			got := *gotp
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("GOMAXPROCS=%d workers=%d: thetas[%d] = %x, reference %x",
						procs, workers, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			putFloats(gotp)
		}
	}
}

// TestBootstrapBCaWorkerInvariant checks the same contract end to end
// through the public API, which resamples on GOMAXPROCS goroutines: the
// full BCa interval is byte-identical for every GOMAXPROCS, the sequential
// path (1) included.
func TestBootstrapBCaWorkerInvariant(t *testing.T) {
	xs := lognormalSample(12, 150)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var base stats.Interval
	for i, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		iv, err := BootstrapBCa(xs, 0.5, 0.9, BootstrapOptions{Resamples: 400, Seed: 3})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if i == 0 {
			base = iv
			continue
		}
		if math.Float64bits(iv.Lo) != math.Float64bits(base.Lo) ||
			math.Float64bits(iv.Hi) != math.Float64bits(base.Hi) {
			t.Fatalf("GOMAXPROCS=%d: interval %v differs from GOMAXPROCS=1 interval %v", procs, iv, base)
		}
	}
}

// TestBootstrapSortedMatchesUnsorted pins the documented identity
// BootstrapBCa(xs) == BootstrapBCaSorted(sortedCopy(xs)) for any permutation
// of xs: the resampling stream draws from the sorted order, so caller-side
// sample order is irrelevant.
func TestBootstrapSortedMatchesUnsorted(t *testing.T) {
	xs := lognormalSample(13, 80)
	want, err := BootstrapBCa(xs, 0.5, 0.9, BootstrapOptions{Resamples: 300, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// A different permutation of the same values.
	perm := append([]float64(nil), xs...)
	r := randx.New(5)
	for i := len(perm) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	got, err := BootstrapBCa(perm, 0.5, 0.9, BootstrapOptions{Resamples: 300, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Lo) != math.Float64bits(want.Lo) ||
		math.Float64bits(got.Hi) != math.Float64bits(want.Hi) {
		t.Fatalf("permuted sample: interval %v, original order %v", got, want)
	}
	sorted, err := BootstrapBCaSorted(sortedCopy(xs), 0.5, 0.9, BootstrapOptions{Resamples: 300, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sorted.Lo) != math.Float64bits(want.Lo) ||
		math.Float64bits(sorted.Hi) != math.Float64bits(want.Hi) {
		t.Fatalf("BootstrapBCaSorted %v differs from BootstrapBCa %v", sorted, want)
	}
}

// naiveJackknifeAcceleration is the classical definition: for each left-out
// index build the leave-one-out sample, sort it, take the inverted-CDF
// quantile, and form the third-moment ratio.
func naiveJackknifeAcceleration(xs []float64, f float64) (float64, bool) {
	return naiveJackknifeAt(xs, stats.QuantileIndex(f, len(xs)-1))
}

// naiveJackknifeAt is naiveJackknifeAcceleration with the leave-one-out
// quantile given as its 1-based order statistic k.
func naiveJackknifeAt(xs []float64, k int) (float64, bool) {
	n := len(xs)
	jack := make([]float64, n)
	loo := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		loo = loo[:0]
		loo = append(loo, xs[:i]...)
		loo = append(loo, xs[i+1:]...)
		sort.Float64s(loo)
		jack[i] = loo[k-1]
	}
	mean := 0.0
	for _, v := range jack {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for _, v := range jack {
		d := mean - v
		num += d * d * d
		den += d * d
	}
	if den == 0 {
		return 0, false
	}
	return num / (6 * math.Pow(den, 1.5)), true
}

// TestJackknifeAccelerationMatchesNaive pins the incremental O(1) jackknife
// against the classical per-left-out definition, including on samples with
// heavy duplication (where both must report the degenerate case).
func TestJackknifeAccelerationMatchesNaive(t *testing.T) {
	cases := [][]float64{
		lognormalSample(21, 10),
		lognormalSample(22, 23),
		lognormalSample(23, 100),
		{1, 1, 1, 1, 1, 1},          // fully degenerate
		{1, 1, 1, 1, 1, 2},          // single distinct tail value
		{0, 0, 0, 1, 1, 1, 2, 2, 2}, // plateaus
	}
	for ci, xs := range cases {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, f := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95} {
			wantA, wantOK := naiveJackknifeAcceleration(xs, f)
			gotA, gotOK := jackknifeAcceleration(sorted, f)
			if gotOK != wantOK {
				t.Fatalf("case %d f=%g: ok=%v, naive ok=%v", ci, f, gotOK, wantOK)
			}
			if !gotOK {
				continue
			}
			if math.Abs(gotA-wantA) > 1e-12*math.Max(1, math.Abs(wantA)) {
				t.Fatalf("case %d f=%g: a=%v, naive %v", ci, f, gotA, wantA)
			}
		}
	}
}

// TestJackknifeLeaveOneOutIndex pins the leave-one-out order statistic
// where F·m rounds up past an integer in float64 (0.55·100 is
// 55.00000000000001): the jackknife must match the per-left-out
// definition at the exact index, the smallest k with k/m ≥ F.
func TestJackknifeLeaveOneOutIndex(t *testing.T) {
	for _, tc := range []struct {
		f    float64
		m, k int
	}{{0.55, 100, 55}, {0.9, 100, 90}, {0.7, 10, 7}, {0.3, 10, 3}, {0.07, 100, 7}, {0.28, 25, 7}} {
		xs := lognormalSample(31, tc.m+1)
		wantA, wantOK := naiveJackknifeAt(xs, tc.k)
		gotA, gotOK := jackknifeAcceleration(sortedCopy(xs), tc.f)
		if !wantOK || !gotOK || math.Abs(gotA-wantA) > 1e-12*math.Max(1, math.Abs(wantA)) {
			t.Errorf("F=%g m=%d: a=%v (ok %v), want %v at order statistic %d", tc.f, tc.m, gotA, gotOK, wantA, tc.k)
		}
	}
}

// TestBootstrapGolden pins the exact interval bits of the resampling stream.
// These goldens define the deterministic bootstrap output for the current
// seed-splitting scheme (per-resample substreams over the sorted sample); any
// change to the stream must re-pin them consciously (see DESIGN.md).
func TestBootstrapGolden(t *testing.T) {
	xs := lognormalSample(42, 100)
	cases := []struct {
		name   string
		f, c   float64
		build  func() (stats.Interval, error)
		lo, hi uint64 // math.Float64bits of the expected endpoints
	}{
		{
			name: "bca_median",
			build: func() (stats.Interval, error) {
				return BootstrapBCa(xs, 0.5, 0.9, BootstrapOptions{Resamples: 1000, Seed: 7})
			},
			lo: 0x3ff0515fca16b145, hi: 0x3ff17bdce6a1cbf2, // [1.0198667425239176, 1.0927399643958293]
		},
		{
			name: "bca_p90",
			build: func() (stats.Interval, error) {
				return BootstrapBCa(xs, 0.9, 0.95, BootstrapOptions{Resamples: 1000, Seed: 7})
			},
			lo: 0x3ff3b3348bc066d7, hi: 0x3ff6840a32e5614c, // [1.231251283554618, 1.4072362888455983]
		},
	}
	for _, tc := range cases {
		iv, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if math.Float64bits(iv.Lo) != tc.lo || math.Float64bits(iv.Hi) != tc.hi {
			t.Errorf("%s: got [%v, %v] (bits %#x, %#x), golden bits (%#x, %#x)",
				tc.name, iv.Lo, iv.Hi, math.Float64bits(iv.Lo), math.Float64bits(iv.Hi), tc.lo, tc.hi)
		}
	}
}
