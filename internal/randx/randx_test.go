package randx

import (
	"math"
	"runtime"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestSplitOrderIndependence(t *testing.T) {
	r1 := New(7)
	r2 := New(7)
	// Splitting id 5 must give the same stream regardless of other splits.
	_ = r1.Split(3)
	a := r1.Split(5)
	b := r2.Split(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split streams diverged at step %d", i)
		}
	}
}

// TestSplitReadsCurrentState pins SplitInto's contract: a split reads the
// parent's current state and never advances it, so splitting leaves the
// parent's stream as it was, and a split taken after the parent has drawn
// is a different stream. The workload profiles split before they draw, so
// these values are part of every program the golden fence pins.
func TestSplitReadsCurrentState(t *testing.T) {
	r, ref := New(1), New(1)
	if got := r.Split(5).Uint64(); got != 0x204a01e24959d1cc {
		t.Errorf("split before a draw = %#x, want 0x204a01e24959d1cc", got)
	}
	if r.Uint64() != ref.Uint64() {
		t.Fatal("Split advanced the parent")
	}
	if got := r.Split(5).Uint64(); got != 0xa8d771e8c422de97 {
		t.Errorf("split after a draw = %#x, want 0xa8d771e8c422de97", got)
	}
}

func TestSplitStreamsDecorrelated(t *testing.T) {
	r := New(99)
	a := r.Split(1)
	b := r.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("sibling splits produced %d collisions in 1000 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(4)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("Intn bucket %d count %d deviates >5%% from %g", k, c, want)
		}
	}
}

func TestIntnPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniformIntInclusiveBounds(t *testing.T) {
	r := New(5)
	seenLo, seenHi := false, false
	for i := 0; i < 10000; i++ {
		v := r.UniformInt(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
		if v == 3 {
			seenLo = true
		}
		if v == 7 {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Error("UniformInt never hit an endpoint in 10000 draws")
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	varr := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal mean = %g, want ≈10", mean)
	}
	if math.Abs(varr-4) > 0.15 {
		t.Errorf("Normal variance = %g, want ≈4", varr)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exponential(0.5)
		if v < 0 {
			t.Fatal("negative exponential variate")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-2) > 0.05 {
		t.Errorf("Exponential(0.5) mean = %g, want ≈2", mean)
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(8)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %g", rate)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(12)
	z := NewZipf(r, 100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		k := z.Next()
		if k < 0 || k >= 100 {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[50] {
		t.Error("Zipf head not heavier than middle")
	}
	if counts[0] <= counts[99] {
		t.Error("Zipf head not heavier than tail")
	}
}

// zipfSearch is the reference draw: a binary search for the first index
// whose CDF value is at least u, or the last index if none is.
func zipfSearch(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] >= u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TestZipfGuideMatchesBinarySearch: the guide-table draw returns the
// binary search's index for every (n, s) the workload profiles build and
// for small n, at random u, at every CDF value and bucket boundary, and at
// each one's predecessor, and Next consumes exactly one Float64.
func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	params := []struct {
		n int
		s float64
	}{
		// internal/workload's skewed shared regions: size/64-byte blocks, skew.
		{65536, 0.7}, {196608, 1.0}, {14336, 0.3}, {98304, 0.8}, {131072, 1.15}, {32768, 0.5},
		{1, 1}, {2, 0.5}, {3, 1.2}, {1000, 0.9},
		// s = 0 is uniform: every eighth CDF value lands exactly on a
		// bucket boundary.
		{64, 0},
	}
	r := New(5)
	for _, p := range params {
		z := NewZipf(New(9), p.n, p.s)
		cdf := z.t.cdf
		check := func(u float64) {
			t.Helper()
			if u < 0 || u >= 1 {
				return // outside Float64's range
			}
			if got, want := z.index(u), zipfSearch(cdf, u); got != want {
				t.Fatalf("n=%d s=%g u=%v: guide draw %d, binary search %d", p.n, p.s, u, got, want)
			}
		}
		for i := 0; i < 20000; i++ {
			check(r.Float64())
		}
		for _, c := range cdf {
			check(c)
			check(math.Nextafter(c, 0))
		}
		m := float64(len(z.t.guide))
		for j := range z.t.guide {
			check(float64(j) / m)
			check(math.Nextafter(float64(j)/m, 0))
		}
		ref := New(9)
		for i := 0; i < 1000; i++ {
			if got, want := z.Next(), zipfSearch(cdf, ref.Float64()); got != want {
				t.Fatalf("n=%d s=%g draw %d: Next %d, binary search %d", p.n, p.s, i, got, want)
			}
		}
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(r, 0, s) should panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func TestMul64AgainstBigProducts(t *testing.T) {
	// Spot-check against values computable exactly: (2^32)(2^32) = 2^64.
	hi, lo := mul64(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Errorf("mul64(2^32,2^32) = (%d,%d), want (1,0)", hi, lo)
	}
	hi, lo = mul64(0xffffffffffffffff, 2)
	if hi != 1 || lo != 0xfffffffffffffffe {
		t.Errorf("mul64(max,2) = (%d,%#x)", hi, lo)
	}
	hi, lo = mul64(123456789, 987654321)
	if hi != 0 || lo != 123456789*987654321 {
		t.Errorf("small mul64 wrong: (%d,%d)", hi, lo)
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exponential(0) should panic")
		}
	}()
	New(1).Exponential(0)
}

func TestUniformIntPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UniformInt(5,3) should panic")
		}
	}()
	New(1).UniformInt(5, 3)
}

func TestUniformRange(t *testing.T) {
	r := New(21)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Uniform out of range: %g", v)
		}
	}
}

// TestZipfTablesDieWithSampler: a sampler's tables are its own, so once
// the sampler is dropped a collection frees them; nothing in the package
// keeps a copy for later samplers.
func TestZipfTablesDieWithSampler(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	z := NewZipf(New(1), 1<<20, 1.0)
	held := heap()
	runtime.KeepAlive(z)
	after := heap()
	if held-before < 8<<20 {
		t.Fatalf("a live sampler over 1<<20 values holds %d B, want its 8.5 MB of tables", held-before)
	}
	if after-before > 1<<20 {
		t.Errorf("%d B still held after the sampler was dropped, want under 1 MB", after-before)
	}
}
