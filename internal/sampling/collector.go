package sampling

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/popcache"
	"repro/internal/population"
	"repro/internal/stats"
)

// Metric names under which cached measured populations carry the design
// bookkeeping alongside the value vector, so a cache hit reconstructs
// every unit — seed, group and proxy — without re-running the pilot.
const (
	// MetricProxy is each measured unit's pilot proxy value.
	MetricProxy = "sampling_proxy"
	// MetricGroup is each measured unit's 1-based rank (RSS) or stratum
	// (stratified).
	MetricGroup = "sampling_group"
	// MetricSeedOffset is each measured unit's seed offset from the
	// campaign base seed. Offsets stay far below 2^53, so the float64
	// vector is exact.
	MetricSeedOffset = "sampling_seed_offset"
	// MetricPool is the pilot pool size whose quantiles cut each
	// measured unit's stratum (stratified; zero for RSS). The estimator
	// needs it to weigh the shared cutpoint error, so populations cached
	// before it existed miss and are regenerated.
	MetricPool = "sampling_pool"
)

// ErrNonContiguous reports a Collect call whose base seed does not extend
// the collector's cumulative range — design collectors are stateful over
// one campaign and cannot serve disjoint ranges.
var ErrNonContiguous = errors.New("sampling: collection is not contiguous from the campaign base seed")

// maxPilotPool bounds the pilot runs one campaign may consume, a guard
// against a degenerate stratification (e.g. a constant proxy putting
// every candidate in one stratum) looping the pilot forever.
const maxPilotPool = 1 << 20

// unit is one full-scale measurement and the design bookkeeping behind
// it.
type unit struct {
	offset uint64  // seed offset from the campaign base seed
	group  int     // 1-based rank (RSS) or stratum (stratified)
	pool   int     // pilot pool size at selection (stratified; 0 for RSS)
	proxy  float64 // pilot proxy value of the measured seed
	value  float64 // full-scale measured value
}

// Stats counts what a design collector actually spent.
type Stats struct {
	PilotRuns int // pilot executions fetched through the PilotFunc
	FullRuns  int // full-scale executions run through the backing collector
	CacheHits int // collection rounds served from the measured-population cache
	// Fidelity is the λ the last DesignInterval used (estimated or
	// fixed); zero before the first interval.
	Fidelity float64
}

// Collector implements core.DesignCollector for the stratified and RSS
// designs over any backing core.Collector. It is stateful: one Collector
// serves one campaign, extending a single contiguous unit sequence
// rooted at the first Collect's base seed (the adaptive loop's
// refinement rounds do exactly this). It is safe for concurrent use,
// though rounds are inherently sequential.
type Collector struct {
	opts  Options
	full  core.Collector
	pilot PilotFunc

	mu        sync.Mutex
	err       error // first state-corrupting failure; poisons the campaign
	started   bool
	firstBase uint64
	units     []unit
	pilotVals []float64 // proxy values for pilot seeds firstBase+0, +1, …

	// Stratified selection state. The stratification is re-cut from the
	// entire pilot pool every time it grows (see restratify), so the
	// cutpoint error shrinks as the campaign spends more pilots instead
	// of staying frozen at the first block's O(1/√B) accuracy.
	targets   []float64 // Neyman allocation weights (nil = proportional)
	binCounts []int     // measured units per stratum
	binQ      [][]int   // per-stratum FIFO of unmeasured pilot offsets
	taken     []bool    // pilot offsets already measured

	stats Stats
}

// New builds a design collector over full, using pilot for the proxy
// pass. See Options for the knobs; Plain is rejected.
func New(opts Options, full core.Collector, pilot PilotFunc) (*Collector, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	if full == nil {
		return nil, errors.New("sampling: nil backing collector")
	}
	if pilot == nil {
		return nil, errors.New("sampling: nil pilot function")
	}
	return &Collector{opts: opts, full: full, pilot: pilot}, nil
}

// Stats returns a copy of the spend counters.
func (s *Collector) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Collect implements core.Collector: it returns n full-scale samples for
// n design-selected seeds from the campaign range, in selection order.
// Successive calls must extend the same range (baseSeed = previous base
// + previous count), exactly as the adaptive loop's refinement rounds
// do.
func (s *Collector) Collect(baseSeed uint64, n, batch int, h core.Hooks) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sampling: non-positive sample count %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	if !s.started {
		s.started, s.firstBase = true, baseSeed
	} else if want := s.firstBase + uint64(len(s.units)); baseSeed != want {
		return nil, fmt.Errorf("%w: got base seed %d, want %d", ErrNonContiguous, baseSeed, want)
	}
	t0 := len(s.units)
	t1 := t0 + n
	if !s.tryCache(t1) {
		if err := s.extend(t1, batch, h); err != nil {
			// Selection state (consumed stratum queues, half-appended
			// units) cannot be rolled back deterministically, so the
			// campaign is poisoned rather than left silently divergent.
			s.err = err
			return nil, err
		}
		s.putCache(t1)
	}
	out := make([]float64, n)
	for i := t0; i < t1; i++ {
		out[i-t0] = s.units[i].value
	}
	return out, nil
}

// extend selects units t0..t1 and measures them at full scale.
func (s *Collector) extend(t1, batch int, h core.Hooks) error {
	t0 := len(s.units)
	var err error
	if s.opts.Design == RSS {
		err = s.selectRSS(t1)
	} else {
		err = s.selectStratified(t1)
	}
	if err != nil {
		return err
	}
	return s.measure(t0, t1, batch, h)
}

// selectRSS appends units up to t1. Unit t draws its candidate set from
// pilot offsets t·k .. t·k+k−1 and measures the candidate the pilot
// ranks (t mod k)+1-th smallest — cycling the rank keeps the mean of the
// per-unit satisfaction probabilities exactly at the plain p over every
// complete cycle, so the estimator's count model is centred.
func (s *Collector) selectRSS(t1 int) error {
	k := s.opts.Strata
	if err := s.ensurePilots(t1 * k); err != nil {
		return err
	}
	for t := len(s.units); t < t1; t++ {
		base := t * k
		r := t%k + 1
		j := rankSelect(s.pilotVals[base:base+k], r)
		s.units = append(s.units, unit{offset: uint64(base + j), group: r, proxy: s.pilotVals[base+j]})
	}
	return nil
}

// rankSelect returns the index of the r-th smallest value (1-based),
// breaking ties by index so selection is deterministic.
func rankSelect(set []float64, r int) int {
	idx := make([]int, len(set))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if set[idx[a]] != set[idx[b]] {
			return set[idx[a]] < set[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[r-1]
}

// selectStratified appends units up to t1, drawing each from the stratum
// the allocation rule picks next, in pilot seed order within a stratum.
func (s *Collector) selectStratified(t1 int) error {
	if s.binQ == nil {
		if err := s.ensurePilots(s.opts.PilotBlock); err != nil {
			return err
		}
		s.binCounts = make([]int, s.opts.Strata)
		s.restratify()
		if len(s.units) > 0 {
			// Earlier rounds were cache-served without a pilot pass;
			// replay the deterministic selection over them to restore
			// the queues (pilot values come back from the pilot cache,
			// so this costs no simulation on a warm cache).
			if err := s.replayStratified(); err != nil {
				return err
			}
		}
	}
	for t := len(s.units); t < t1; t++ {
		g := s.nextStratum(t)
		off, err := s.popStratum(g)
		if err != nil {
			return err
		}
		s.units = append(s.units, unit{
			offset: uint64(off), group: g + 1, pool: len(s.pilotVals), proxy: s.pilotVals[off],
		})
		s.binCounts[g]++
	}
	return nil
}

// restratify re-cuts the stratification from the entire pilot pool:
// every candidate — measured or not — is assigned to a stratum by rank
// position within the pool, and the queues are rebuilt from the
// unmeasured candidates in seed order. Rank-position assignment, not
// cutpoint compare, keeps the strata balanced even when the proxy is
// heavily tied. Neyman weights are refreshed from the full pool at the
// same time. Everything is a pure function of the pilot value stream,
// so selection stays deterministic and scheduling-independent.
func (s *Collector) restratify() {
	B := len(s.pilotVals)
	L := s.opts.Strata
	idx := make([]int, B)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if s.pilotVals[idx[a]] != s.pilotVals[idx[b]] {
			return s.pilotVals[idx[a]] < s.pilotVals[idx[b]]
		}
		return idx[a] < idx[b]
	})
	binOf := make([]int, B)
	for rp, j := range idx {
		binOf[j] = rp * L / B
	}
	s.binQ = make([][]int, L)
	for len(s.taken) < B {
		s.taken = append(s.taken, false)
	}
	for j := 0; j < B; j++ {
		if !s.taken[j] {
			s.binQ[binOf[j]] = append(s.binQ[binOf[j]], j)
		}
	}
	if s.opts.Allocation == Neyman {
		s.targets = neymanWeights(s.pilotVals, binOf, L)
	}
}

// neymanWeights returns allocation weights proportional to the
// within-stratum proxy standard deviation, floored at half an equal
// share so no stratum starves, and normalized to sum 1. A constant
// proxy (all deviations zero) falls back to proportional (nil).
func neymanWeights(vals []float64, binOf []int, L int) []float64 {
	sum := make([]float64, L)
	sumSq := make([]float64, L)
	cnt := make([]float64, L)
	for j, v := range vals {
		h := binOf[j]
		sum[h] += v
		sumSq[h] += v * v
		cnt[h]++
	}
	w := make([]float64, L)
	total := 0.0
	for h := 0; h < L; h++ {
		if cnt[h] > 0 {
			mean := sum[h] / cnt[h]
			varr := sumSq[h]/cnt[h] - mean*mean
			if varr > 0 {
				w[h] = math.Sqrt(varr)
			}
		}
		total += w[h]
	}
	if total == 0 {
		return nil
	}
	floor := 0.5 * total / float64(L)
	total = 0
	for h := 0; h < L; h++ {
		if w[h] < floor {
			w[h] = floor
		}
		total += w[h]
	}
	for h := 0; h < L; h++ {
		w[h] /= total
	}
	return w
}

// nextStratum picks the stratum for unit t (0-based stratum index):
// cycling under proportional allocation, largest cumulative deficit
// against the targets under Neyman (ties to the lowest stratum, so the
// choice is deterministic).
func (s *Collector) nextStratum(t int) int {
	L := s.opts.Strata
	if s.targets == nil {
		return t % L
	}
	best, bestDef := 0, s.targets[0]*float64(t+1)-float64(s.binCounts[0])
	for h := 1; h < L; h++ {
		if def := s.targets[h]*float64(t+1) - float64(s.binCounts[h]); def > bestDef {
			best, bestDef = h, def
		}
	}
	return best
}

// popStratum takes the next unmeasured pilot offset from stratum g,
// fetching further pilot blocks — and re-cutting the stratification
// over the grown pool — until the stratum has a candidate. The offset
// is marked measured so later re-cuts skip it.
func (s *Collector) popStratum(g int) (int, error) {
	for len(s.binQ[g]) == 0 {
		if len(s.pilotVals) >= maxPilotPool {
			return 0, fmt.Errorf("sampling: stratum %d still empty after %d pilot runs (degenerate proxy stratification)", g+1, len(s.pilotVals))
		}
		if err := s.ensurePilots(len(s.pilotVals) + s.opts.PilotBlock); err != nil {
			return 0, err
		}
		s.restratify()
	}
	off := s.binQ[g][0]
	s.binQ[g] = s.binQ[g][1:]
	s.taken[off] = true
	return off, nil
}

// replayStratified re-runs the selection algorithm over units restored
// from the measured-population cache, consuming the stratum queues
// exactly as the original campaign did, and verifies the replay agrees
// with the cached record — a divergence means the cache entry does not
// belong to this design configuration.
func (s *Collector) replayStratified() error {
	for t, u := range s.units {
		g := s.nextStratum(t)
		off, err := s.popStratum(g)
		if err != nil {
			return err
		}
		if uint64(off) != u.offset || g+1 != u.group || len(s.pilotVals) != u.pool {
			return fmt.Errorf("sampling: cached population diverges from design replay at unit %d (offset %d vs %d, stratum %d vs %d, pool %d vs %d)",
				t, u.offset, off, u.group, g+1, u.pool, len(s.pilotVals))
		}
		s.binCounts[g]++
	}
	return nil
}

// ensurePilots grows the pilot value vector to at least m entries, in
// whole PilotBlock-aligned fetches so a caching PilotFunc always sees
// the same block-aligned recipes.
func (s *Collector) ensurePilots(m int) error {
	for len(s.pilotVals) < m {
		base := s.firstBase + uint64(len(s.pilotVals))
		vals, err := s.pilot(base, s.opts.PilotBlock)
		if err != nil {
			return fmt.Errorf("sampling: pilot pass at base seed %d: %w", base, err)
		}
		if len(vals) != s.opts.PilotBlock {
			return &core.CollectionSizeError{BaseSeed: base, Requested: s.opts.PilotBlock, Returned: len(vals)}
		}
		s.pilotVals = append(s.pilotVals, vals...)
		s.stats.PilotRuns += len(vals)
	}
	return nil
}

// span is a run of consecutive measured seeds, coalesced so the backing
// collector sees ranged requests instead of per-seed ones.
type span struct {
	base  uint64 // absolute seed
	count int
}

// measure runs the full-scale executions for units t0..t1 through the
// backing collector and fills in their values. Selected seeds are
// sorted, coalesced into consecutive spans and issued with at most
// batch spans in flight (each span honouring batch internally), so the
// caller's parallelism bound is approximate across spans but the
// values — keyed by seed — are independent of scheduling.
func (s *Collector) measure(t0, t1, batch int, h core.Hooks) error {
	seeds := make([]uint64, 0, t1-t0)
	pos := make(map[uint64]int, t1-t0)
	for i := t0; i < t1; i++ {
		seed := s.firstBase + s.units[i].offset
		seeds = append(seeds, seed)
		pos[seed] = i
	}
	sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
	var spans []span
	for _, seed := range seeds {
		if k := len(spans) - 1; k >= 0 && spans[k].base+uint64(spans[k].count) == seed {
			spans[k].count++
		} else {
			spans = append(spans, span{base: seed, count: 1})
		}
	}

	workers := batch
	if workers <= 0 || workers > len(spans) {
		workers = len(spans)
		if workers > 16 {
			workers = 16
		}
	}
	type spanResult struct {
		idx  int
		vals []float64
		err  error
	}
	jobs := make(chan int)
	results := make([]spanResult, len(spans))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for k := range jobs {
				vals, err := s.full.Collect(spans[k].base, spans[k].count, batch, h)
				if err == nil && len(vals) != spans[k].count {
					err = &core.CollectionSizeError{BaseSeed: spans[k].base, Requested: spans[k].count, Returned: len(vals)}
				}
				results[k] = spanResult{idx: k, vals: vals, err: err}
			}
		}()
	}
	for k := range spans {
		jobs <- k
	}
	close(jobs)
	wg.Wait()

	var errs []error
	for k, res := range results {
		if res.err != nil {
			errs = append(errs, fmt.Errorf("sampling: measuring seeds %d..%d: %w",
				spans[k].base, spans[k].base+uint64(spans[k].count)-1, res.err))
			continue
		}
		for i, v := range res.vals {
			s.units[pos[spans[k].base+uint64(i)]].value = v
		}
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	s.stats.FullRuns += len(seeds)
	return nil
}

// cacheKey is the content address of the cumulative measured population
// after runs units: the caller's base recipe plus everything that
// influences seed selection.
func (s *Collector) cacheKey(runs int) popcache.Key {
	k := s.opts.Recipe
	k.BaseSeed = s.firstBase
	k.Runs = runs
	k.Design = s.opts.Design.String()
	k.Strata = s.opts.Strata
	if s.opts.Design == Stratified {
		k.Allocation = s.opts.Allocation.String()
	}
	k.PilotRuns = s.opts.PilotBlock
	k.Fidelity = s.opts.Fidelity
	return k
}

// tryCache serves units up to t1 from the measured-population cache.
// The cached vectors are validated in full — including against the
// units this collector already holds — before anything is appended, so
// a damaged or foreign entry degrades to a miss, never to divergence.
func (s *Collector) tryCache(t1 int) bool {
	if s.opts.Cache == nil {
		return false
	}
	pop := s.opts.Cache.Get(s.cacheKey(t1))
	if pop == nil || pop.Runs != t1 {
		return false
	}
	vals, err1 := pop.Metric(s.opts.Metric)
	proxies, err2 := pop.Metric(MetricProxy)
	groups, err3 := pop.Metric(MetricGroup)
	offs, err4 := pop.Metric(MetricSeedOffset)
	pools, err5 := pop.Metric(MetricPool)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil ||
		len(vals) != t1 || len(proxies) != t1 || len(groups) != t1 || len(offs) != t1 || len(pools) != t1 {
		return false
	}
	for i, u := range s.units {
		if uint64(offs[i]) != u.offset || int(groups[i]) != u.group || int(pools[i]) != u.pool || proxies[i] != u.proxy || vals[i] != u.value {
			return false
		}
	}
	fresh := make([]unit, 0, t1-len(s.units))
	for i := len(s.units); i < t1; i++ {
		g := int(groups[i])
		if g < 1 || g > s.opts.Strata || float64(g) != groups[i] || offs[i] < 0 || offs[i] != float64(uint64(offs[i])) ||
			pools[i] < 0 || pools[i] != float64(int(pools[i])) {
			return false
		}
		fresh = append(fresh, unit{offset: uint64(offs[i]), group: g, pool: int(pools[i]), proxy: proxies[i], value: vals[i]})
	}
	s.units = append(s.units, fresh...)
	s.stats.CacheHits++
	return true
}

// putCache stores the cumulative measured population after t1 units.
// Errors are dropped: caching is an optimization, never a correctness
// dependency.
func (s *Collector) putCache(t1 int) {
	if s.opts.Cache == nil {
		return
	}
	m := map[string][]float64{
		s.opts.Metric:    make([]float64, t1),
		MetricProxy:      make([]float64, t1),
		MetricGroup:      make([]float64, t1),
		MetricSeedOffset: make([]float64, t1),
		MetricPool:       make([]float64, t1),
	}
	for i, u := range s.units[:t1] {
		m[s.opts.Metric][i] = u.value
		m[MetricProxy][i] = u.proxy
		m[MetricGroup][i] = float64(u.group)
		m[MetricSeedOffset][i] = float64(u.offset)
		m[MetricPool][i] = float64(u.pool)
	}
	pop := &population.Population{
		Benchmark: s.opts.Recipe.Benchmark,
		Runs:      t1,
		BaseSeed:  s.firstBase,
		Metrics:   m,
	}
	_ = s.opts.Cache.Put(s.cacheKey(t1), pop)
}

// DesignInterval implements core.DesignCollector: the confidence
// interval matched to the design, over exactly the cumulative samples
// this collector's Collect calls returned.
func (s *Collector) DesignInterval(samples []float64, p core.Params) (stats.Interval, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(samples)
	if n == 0 {
		return stats.Interval{}, fmt.Errorf("%w: empty sample", core.ErrInsufficientSamples)
	}
	if n > len(s.units) {
		return stats.Interval{}, fmt.Errorf("sampling: interval over %d samples but only %d collected", n, len(s.units))
	}
	groups := make([]int, n)
	var pools []int
	if s.opts.Design == Stratified {
		pools = make([]int, n)
	}
	for i := range groups {
		if samples[i] != s.units[i].value {
			return stats.Interval{}, fmt.Errorf("sampling: sample %d is not this collector's collection-order output", i)
		}
		groups[i] = s.units[i].group
		if pools != nil {
			pools[i] = s.units[i].pool
		}
	}
	lam := s.opts.Fidelity
	if lam == 0 {
		switch s.opts.Design {
		case Stratified:
			// Stratum agreement, not Spearman: the stratified count
			// model only cares whether units land in their assigned
			// band, and global rank correlation overstates that near
			// the cutpoints (see estimateStratumFidelity).
			lam = estimateStratumFidelity(groups, samples, s.opts.Strata)
		default:
			proxies := make([]float64, n)
			values := make([]float64, n)
			for i, u := range s.units[:n] {
				proxies[i], values[i] = u.proxy, u.value
			}
			lam = estimateFidelity(proxies, values)
		}
	}
	s.stats.Fidelity = lam
	return designCI(samples, groups, pools, s.opts.Design, s.opts.Strata, lam, p)
}

// DesignMinSamples implements core.DesignCollector. At λ = 0 the
// design's count model is exactly the plain binomial, and designCI falls
// back to λ = 0 whenever the tempered model cannot converge, so the
// plain minimum is a valid (conservative) minimum for the design.
func (s *Collector) DesignMinSamples(p core.Params) (int, error) {
	return core.CIMinSamples(p)
}
