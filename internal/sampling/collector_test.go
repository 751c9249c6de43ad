package sampling

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/popcache"
)

// synthValue is a deterministic uniform-ish metric on [0, 1).
func synthValue(seed uint64) float64 {
	return float64(seed*2654435761%1000003) / 1000003
}

// synthProxy is a noisy but rank-correlated pilot proxy for synthValue.
func synthProxy(seed uint64) float64 {
	return synthValue(seed) + 0.05*math.Sin(float64(seed))
}

// countingBackend counts full-scale runs and records every seed served.
type countingBackend struct {
	runs  atomic.Int64
	calls atomic.Int64
}

func (b *countingBackend) collector() core.Collector {
	return core.FuncCollector(func(seed uint64) (float64, error) {
		b.runs.Add(1)
		return synthValue(seed), nil
	})
}

func (b *countingBackend) pilot() PilotFunc {
	inner := core.FuncCollector(func(seed uint64) (float64, error) { return synthProxy(seed), nil })
	return func(baseSeed uint64, n int) ([]float64, error) {
		b.calls.Add(1)
		return inner.Collect(baseSeed, n, 0, core.Hooks{})
	}
}

func testOptions(d Design) Options {
	return Options{Design: d, Strata: 3}
}

func mustNew(t *testing.T, opts Options, b *countingBackend) *Collector {
	t.Helper()
	c, err := New(opts, b.collector(), b.pilot())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// collectRounds drives nRounds Collect calls of size per and returns the
// concatenated samples.
func collectRounds(t *testing.T, c *Collector, base uint64, nRounds, per, batch int) []float64 {
	t.Helper()
	var all []float64
	for r := 0; r < nRounds; r++ {
		got, err := c.Collect(base+uint64(len(all)), per, batch, core.Hooks{})
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if len(got) != per {
			t.Fatalf("round %d: %d samples, want %d", r, len(got), per)
		}
		all = append(all, got...)
	}
	return all
}

// TestRSSSelection pins the ranked-set construction on a perfectly
// ranking proxy: unit t measures the (t mod k)+1-th smallest of its own
// k-candidate set, so with proxy ≡ value the returned sample is exactly
// that order statistic of the candidate values.
func TestRSSSelection(t *testing.T) {
	b := &countingBackend{}
	opts := testOptions(RSS)
	c, err := New(opts, b.collector(), func(baseSeed uint64, n int) ([]float64, error) {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = synthValue(baseSeed + uint64(i)) // perfect proxy
		}
		return vals, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const base, n, k = 500, 9, 3
	got := collectRounds(t, c, base, 1, n, 4)
	for u := 0; u < n; u++ {
		set := []float64{synthValue(base + uint64(u*k)), synthValue(base + uint64(u*k+1)), synthValue(base + uint64(u*k+2))}
		r := u%k + 1
		// r-th smallest of the candidate set
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				if set[j] < set[i] {
					set[i], set[j] = set[j], set[i]
				}
			}
		}
		if got[u] != set[r-1] {
			t.Errorf("unit %d: got %v, want rank-%d value %v", u, got[u], r, set[r-1])
		}
	}
	st := c.Stats()
	if st.FullRuns != n {
		t.Errorf("full runs %d, want %d", st.FullRuns, n)
	}
	if st.PilotRuns < n*k {
		t.Errorf("pilot runs %d, want ≥ %d", st.PilotRuns, n*k)
	}
}

// TestStratifiedCoversStrata checks the proportional schedule cycles all
// strata and that selected units' proxies respect the cutpoints (later
// blocks are binned by cutpoint compare).
func TestStratifiedCoversStrata(t *testing.T) {
	b := &countingBackend{}
	c := mustNew(t, testOptions(Stratified), b)
	const n = 30
	collectRounds(t, c, 7000, 1, n, 8)
	counts := map[int]int{}
	for _, u := range c.units {
		counts[u.group]++
	}
	for g := 1; g <= 3; g++ {
		if counts[g] != n/3 {
			t.Errorf("stratum %d measured %d times, want %d", g, counts[g], n/3)
		}
	}
}

// TestDeterminismAcrossBatch pins scheduling independence: the same
// campaign collected with batch 1 and batch 8 yields bit-identical
// samples, for both designs and across refinement rounds.
func TestDeterminismAcrossBatch(t *testing.T) {
	for _, d := range []Design{Stratified, RSS} {
		a := collectRounds(t, mustNew(t, testOptions(d), &countingBackend{}), 42, 3, 17, 1)
		bb := collectRounds(t, mustNew(t, testOptions(d), &countingBackend{}), 42, 3, 17, 8)
		cc := collectRounds(t, mustNew(t, testOptions(d), &countingBackend{}), 42, 3, 17, 0)
		for i := range a {
			if a[i] != bb[i] || a[i] != cc[i] {
				t.Fatalf("%v: sample %d differs across batch sizes: %v %v %v", d, i, a[i], bb[i], cc[i])
			}
		}
	}
}

func TestNonContiguousRejected(t *testing.T) {
	c := mustNew(t, testOptions(RSS), &countingBackend{})
	if _, err := c.Collect(100, 6, 0, core.Hooks{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Collect(200, 6, 0, core.Hooks{}); !errors.Is(err, ErrNonContiguous) {
		t.Fatalf("disjoint base: got %v, want ErrNonContiguous", err)
	}
	// The correct continuation still works.
	if _, err := c.Collect(106, 6, 0, core.Hooks{}); err != nil {
		t.Fatal(err)
	}
}

func TestShortPilotPoisons(t *testing.T) {
	b := &countingBackend{}
	c, err := New(testOptions(RSS), b.collector(), func(baseSeed uint64, n int) ([]float64, error) {
		return make([]float64, n-1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Collect(0, 6, 0, core.Hooks{})
	var sizeErr *core.CollectionSizeError
	if !errors.As(err, &sizeErr) {
		t.Fatalf("short pilot: got %v, want CollectionSizeError", err)
	}
	// The campaign is poisoned: the same error comes back without
	// re-running anything.
	if _, err2 := c.Collect(6, 6, 0, core.Hooks{}); !errors.As(err2, &sizeErr) {
		t.Fatalf("poisoned collector: got %v", err2)
	}
}

// TestMeasuredPopulationCache pins the popcache integration: an
// identical second campaign is served without a single pilot or
// full-scale run, and extending past the cached rounds (the stratified
// replay path) matches an uncached reference bit for bit.
func TestMeasuredPopulationCache(t *testing.T) {
	for _, d := range []Design{Stratified, RSS} {
		cache := popcache.New("", 0)
		recipe := popcache.Key{Benchmark: "synthetic", Scale: 1, PilotScale: 0.25, ProxyMetric: "proxy"}
		opts := testOptions(d)
		opts.Cache = cache
		opts.Recipe = recipe

		warm := &countingBackend{}
		a := collectRounds(t, mustNew(t, opts, warm), 42, 2, 15, 4)

		cold := &countingBackend{}
		cc := mustNew(t, opts, cold)
		b := collectRounds(t, cc, 42, 2, 15, 4)
		if cold.runs.Load() != 0 || cold.calls.Load() != 0 {
			t.Fatalf("%v: cache-served campaign ran %d full + %d pilot calls", d, cold.runs.Load(), cold.calls.Load())
		}
		if cc.Stats().CacheHits != 2 {
			t.Fatalf("%v: %d cache hits, want 2", d, cc.Stats().CacheHits)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: cached sample %d = %v, want %v", d, i, b[i], a[i])
			}
		}

		// Extend the cache-served campaign one more round; it must match
		// an uncached reference campaign of three rounds.
		ext, err := cc.Collect(42+30, 15, 4, core.Hooks{})
		if err != nil {
			t.Fatalf("%v: extending past cached rounds: %v", d, err)
		}
		refOpts := testOptions(d)
		ref := collectRounds(t, mustNew(t, refOpts, &countingBackend{}), 42, 3, 15, 4)
		for i, v := range ext {
			if v != ref[30+i] {
				t.Fatalf("%v: extended sample %d = %v, want %v", d, i, v, ref[30+i])
			}
		}
	}
}

// TestDesignIntervalValidatesSamples: the interval only accepts the
// collector's own cumulative output.
func TestDesignIntervalValidatesSamples(t *testing.T) {
	c := mustNew(t, testOptions(RSS), &countingBackend{})
	got := collectRounds(t, c, 0, 1, 30, 0)
	p := core.Params{F: 0.5, C: 0.9}
	if _, err := c.DesignInterval(got, p); err != nil {
		t.Fatalf("own samples rejected: %v", err)
	}
	bad := append([]float64(nil), got...)
	bad[3] += 1
	if _, err := c.DesignInterval(bad, p); err == nil {
		t.Fatal("foreign samples accepted")
	}
	if _, err := c.DesignInterval(make([]float64, 99), p); err == nil {
		t.Fatal("overlong sample accepted")
	}
}

// TestAdaptiveLoopIntegration drives core.AnalyzeToWidthWith end to end
// over a design collector: the analysis must converge, route its
// interval through DesignInterval, and account every sample to a
// full-scale run.
func TestAdaptiveLoopIntegration(t *testing.T) {
	for _, d := range []Design{Stratified, RSS} {
		b := &countingBackend{}
		c := mustNew(t, testOptions(d), b)
		p := core.Params{F: 0.5, C: 0.9}
		an, err := core.AnalyzeToWidthWith(c, p, core.WidthOptions{
			TargetWidth: 0.2,
			BaseSeed:    1000,
			Batch:       8,
			MaxSamples:  2048,
		})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if an.Interval.Width() > 0.2 {
			t.Errorf("%v: width %v above target", d, an.Interval.Width())
		}
		st := c.Stats()
		if st.FullRuns != len(an.Samples) {
			t.Errorf("%v: %d full runs for %d samples", d, st.FullRuns, len(an.Samples))
		}
		// The interval must be the design one, not the plain construction.
		want, err := c.DesignInterval(an.Samples, p)
		if err != nil {
			t.Fatal(err)
		}
		if an.Interval != want {
			t.Errorf("%v: analysis interval %+v, design interval %+v", d, an.Interval, want)
		}
	}
}
