package cpu

import (
	"fmt"
	"testing"

	"repro/internal/randx"
)

func TestBranchPredictorLearnsBias(t *testing.T) {
	bp := NewPredictor(1024, 0)
	// A branch always taken: after warmup, no mispredictions.
	for i := 0; i < 10; i++ {
		bp.Predict(0x400, true)
	}
	before := bp.Stats().Mispredicts
	for i := 0; i < 100; i++ {
		if bp.Predict(0x400, true) {
			t.Fatal("saturated predictor mispredicted a biased branch")
		}
	}
	if bp.Stats().Mispredicts != before {
		t.Error("misprediction count changed on biased branch")
	}
}

func TestBranchPredictorAlternatingIsHard(t *testing.T) {
	bp := NewPredictor(64, 0)
	mis := 0
	for i := 0; i < 1000; i++ {
		if bp.Predict(0x80, i%2 == 0) {
			mis++
		}
	}
	// A 2-bit counter on an alternating branch mispredicts ~half the time.
	if mis < 300 {
		t.Errorf("alternating branch mispredicts = %d, expected ≈500", mis)
	}
}

func TestBranchPredictorTableRounding(t *testing.T) {
	bp := NewPredictor(1000, 0) // rounds up to 1024
	if len(bp.counters) != 1024 {
		t.Errorf("table size %d, want 1024", len(bp.counters))
	}
	bp2 := NewPredictor(0, 0)
	if len(bp2.counters) != 16 {
		t.Errorf("minimum table size %d, want 16", len(bp2.counters))
	}
}

func TestTLBValidation(t *testing.T) {
	if _, err := NewTLB(0, 4096); err == nil {
		t.Error("0 entries should error")
	}
	if _, err := NewTLB(64, 3000); err == nil {
		t.Error("non-power-of-two page should error")
	}
}

func TestTLBHitAfterFill(t *testing.T) {
	tlb, err := NewTLB(4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !tlb.Lookup(0x1000) {
		t.Error("first lookup should miss")
	}
	if tlb.Lookup(0x1FFF) {
		t.Error("same-page lookup should hit")
	}
	st := tlb.Stats()
	if st.Lookups != 2 || st.Misses != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tlb, _ := NewTLB(2, 4096)
	tlb.Lookup(0x0000) // page 0
	tlb.Lookup(0x1000) // page 1
	tlb.Lookup(0x0000) // page 0 now MRU
	tlb.Lookup(0x2000) // page 2 evicts page 1
	if tlb.Lookup(0x0000) {
		t.Error("page 0 should still be resident")
	}
	if !tlb.Lookup(0x1000) {
		t.Error("page 1 should have been evicted")
	}
	if tlb.Resident() != 2 {
		t.Errorf("resident = %d, want 2", tlb.Resident())
	}
}

func TestTLBFlush(t *testing.T) {
	tlb, _ := NewTLB(8, 4096)
	tlb.Lookup(0x1000)
	tlb.Flush()
	if tlb.Resident() != 0 {
		t.Error("flush should empty the TLB")
	}
	if !tlb.Lookup(0x1000) {
		t.Error("post-flush lookup should miss")
	}
}

func TestTLBMissRateSmallWorkingSet(t *testing.T) {
	tlb, _ := NewTLB(64, 4096)
	r := randx.New(5)
	// 32 pages fit comfortably: after warmup the miss rate is ~0.
	for i := 0; i < 5000; i++ {
		tlb.Lookup(uint64(r.Intn(32)) * 4096)
	}
	st := tlb.Stats()
	if st.Misses > 40 {
		t.Errorf("fitting working set missed %d times", st.Misses)
	}
}

// Reference model: the O(1) linked-list TLB must behave identically to a
// naive clock-scan LRU over arbitrary access strings.
type refTLB struct {
	entries int
	slots   map[uint64]uint64
	clock   uint64
}

func (t *refTLB) lookup(page uint64) bool {
	t.clock++
	if _, ok := t.slots[page]; ok {
		t.slots[page] = t.clock
		return false
	}
	if len(t.slots) >= t.entries {
		var lruP, lruC uint64 = 0, ^uint64(0)
		for p, c := range t.slots {
			if c < lruC {
				lruC, lruP = c, p
			}
		}
		delete(t.slots, lruP)
	}
	t.slots[page] = t.clock
	return true
}

// collidingPages returns pages whose home slots in t's table are the last
// two slots and the first, each shared by perSlot pages, so probe runs are
// long and wrap around the end of the table.
func collidingPages(t *TLB, perSlot int) []uint64 {
	last := len(t.table) - 1
	want := map[int]int{last - 1: perSlot, last: perSlot, 0: perSlot}
	var pages []uint64
	for p := uint64(0); len(pages) < 3*perSlot; p++ {
		if h := t.home(p); want[h] > 0 {
			want[h]--
			pages = append(pages, p)
		}
	}
	return pages
}

func TestTLBMatchesReferenceModel(t *testing.T) {
	const entries = 64
	for seed := uint64(0); seed < 20; seed++ {
		tlb, err := NewTLB(entries, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if len(tlb.table) != 128 {
			t.Fatalf("table has %d slots, want 128", len(tlb.table))
		}
		// 90 pages in three adjacent, wrapping collision runs plus 30
		// scattered ones: more than the TLB holds, so it evicts all the
		// time, and every eviction shifts entries back across the wrap.
		pages := collidingPages(tlb, 30)
		for p := uint64(1); p <= 30; p++ {
			pages = append(pages, p*7919)
		}
		ref := &refTLB{entries: entries, slots: map[uint64]uint64{}}
		r := randx.New(seed)
		for i := 0; i < 20000; i++ {
			if r.Bernoulli(0.002) {
				tlb.Flush()
				ref.slots = map[uint64]uint64{}
				continue
			}
			// A hot subset keeps hits common, so the recency order matters.
			var page uint64
			if r.Bernoulli(0.5) {
				page = pages[r.Intn(40)]
			} else {
				page = pages[r.Intn(len(pages))]
			}
			got := tlb.Lookup(page<<12 | uint64(r.Intn(4096)))
			if want := ref.lookup(page); got != want {
				t.Fatalf("seed %d access %d page %d: miss=%v, reference says %v", seed, i, page, got, want)
			}
			if tlb.Resident() != len(ref.slots) {
				t.Fatalf("seed %d access %d: occupancy %d, reference %d", seed, i, tlb.Resident(), len(ref.slots))
			}
		}
		// Every resident page is found from its home slot, and nothing else
		// is in the table.
		inTable := 0
		for _, n := range tlb.table {
			if n != 0 {
				inTable++
			}
		}
		if inTable != len(ref.slots) {
			t.Fatalf("seed %d: %d table slots in use, %d resident", seed, inTable, len(ref.slots))
		}
		before := tlb.Stats()
		for page := range ref.slots {
			if tlb.Lookup(page << 12) {
				t.Fatalf("seed %d: resident page %d missed", seed, page)
			}
		}
		if tlb.Stats().Misses != before.Misses {
			t.Fatalf("seed %d: resident pages missed", seed)
		}
	}
}

func TestTLBFlushRefillCycles(t *testing.T) {
	tlb, _ := NewTLB(4, 4096)
	for cycle := 0; cycle < 10; cycle++ {
		for p := uint64(0); p < 4; p++ {
			tlb.Lookup(p * 4096)
		}
		if tlb.Resident() != 4 {
			t.Fatalf("cycle %d: resident %d", cycle, tlb.Resident())
		}
		tlb.Flush()
		if tlb.Resident() != 0 {
			t.Fatal("flush left entries")
		}
	}
	// All those first-touches were misses.
	if tlb.Stats().Misses != 40 {
		t.Errorf("misses = %d, want 40", tlb.Stats().Misses)
	}
}

func TestGshareLearnsCorrelatedPattern(t *testing.T) {
	// A strictly periodic pattern (T T N) defeats a bimodal counter but is
	// perfectly predictable with 2+ bits of history.
	pattern := []bool{true, true, false}
	g := NewPredictor(256, 8)
	b := NewPredictor(256, 0)
	var gMis, bMis int
	for i := 0; i < 3000; i++ {
		taken := pattern[i%3]
		if g.Predict(0x40, taken) {
			gMis++
		}
		if b.Predict(0x40, taken) {
			bMis++
		}
	}
	if gMis >= bMis {
		t.Errorf("gshare (%d misses) should beat bimodal (%d) on a periodic pattern", gMis, bMis)
	}
	if g.Stats().Predictions != 3000 {
		t.Error("prediction count wrong")
	}
	// After warmup, gshare should be nearly perfect on this pattern.
	warm := NewPredictor(256, 8)
	for i := 0; i < 300; i++ {
		warm.Predict(0x40, pattern[i%3])
	}
	late := 0
	for i := 300; i < 600; i++ {
		if warm.Predict(0x40, pattern[i%3]) {
			late++
		}
	}
	if late > 10 {
		t.Errorf("warmed gshare still mispredicts %d/300 on a periodic pattern", late)
	}
}

func TestGshareHistoryClamp(t *testing.T) {
	g := NewPredictor(16, 60) // history clamped to index width (4 bits)
	if g.histMask != 1<<4-1 {
		t.Errorf("history mask = %b, want clamped 1111", g.histMask)
	}
	for i := 0; i < 100; i++ {
		g.Predict(uint64(i)*4, i%2 == 0)
	}
	if g.history > g.histMask {
		t.Errorf("history %b escaped its mask", g.history)
	}
}

// refTable is a reference predictor's counter table, sized as
// NewPredictor sizes its own.
func refTable(entries int) ([]uint8, uint64) {
	n := 16
	for n < entries {
		n <<= 1
	}
	c := make([]uint8, n)
	for i := range c {
		c[i] = 2
	}
	return c, uint64(n - 1)
}

// refUpdate predicts the branch at counter idx, updates the counter and
// reports a misprediction.
func refUpdate(counters []uint8, idx uint64, taken bool) bool {
	ctr := counters[idx]
	if taken && ctr < 3 {
		counters[idx] = ctr + 1
	}
	if !taken && ctr > 0 {
		counters[idx] = ctr - 1
	}
	return (ctr >= 2) != taken
}

// refBimodal is the bimodal predictor, indexed by the PC hash alone.
type refBimodal struct {
	counters []uint8
	mask     uint64
}

func (b *refBimodal) predict(pc uint64, taken bool) bool {
	return refUpdate(b.counters, (pc>>2)&b.mask, taken)
}

// refGshare is the gshare predictor this package had before it became
// Predictor: it masks the history and then ORs in the outcome, so with 0
// history bits a taken branch leaves the history at 1.
type refGshare struct {
	counters []uint8
	mask     uint64
	history  uint64
	histBits uint
}

func newRefGshare(entries int, historyBits uint) *refGshare {
	c, mask := refTable(entries)
	idxBits := uint(0)
	for 1<<idxBits < len(c) {
		idxBits++
	}
	return &refGshare{counters: c, mask: mask, histBits: min(historyBits, idxBits)}
}

func (g *refGshare) predict(pc uint64, taken bool) bool {
	mis := refUpdate(g.counters, ((pc>>2)^g.history)&g.mask, taken)
	g.history = (g.history << 1) & ((1 << g.histBits) - 1)
	if taken {
		g.history |= 1
	}
	return mis
}

// branchStream draws n branches over 64 PCs from seed: each PC has a bias
// of its own, and a third of them follow the previous outcome, so history
// matters.
func branchStream(seed uint64, n int) (pcs []uint64, taken []bool) {
	r := randx.New(seed)
	bias := make([]float64, 64)
	for i := range bias {
		bias[i] = r.Float64()
	}
	last := false
	for i := 0; i < n; i++ {
		pc := 0x4000 + uint64(r.Intn(len(bias)))*4
		tk := r.Bernoulli(bias[(pc-0x4000)/4])
		if (pc/4)%3 == 0 {
			tk = !last
		}
		pcs, taken = append(pcs, pc), append(taken, tk)
		last = tk
	}
	return pcs, taken
}

// TestPredictorMatchesReferences: with zero history bits the predictor is
// exactly bimodal, with 1 to 20 bits exactly the gshare it replaced, and
// its history never leaves its mask, at several table sizes.
func TestPredictorMatchesReferences(t *testing.T) {
	pcs, taken := branchStream(29, 20000)
	check := func(name string, p *Predictor, ref func(pc uint64, taken bool) bool) {
		t.Helper()
		mis := uint64(0)
		for i, pc := range pcs {
			got := p.Predict(pc, taken[i])
			if want := ref(pc, taken[i]); got != want {
				t.Fatalf("%s: branch %d at %#x mispredicted %v, reference %v", name, i, pc, got, want)
			}
			if p.history > p.histMask {
				t.Fatalf("%s: history %b past mask %b", name, p.history, p.histMask)
			}
			if got {
				mis++
			}
		}
		if st := p.Stats(); st.Predictions != uint64(len(pcs)) || st.Mispredicts != mis {
			t.Fatalf("%s: stats %+v, want %d predictions and %d mispredicts", name, st, len(pcs), mis)
		}
	}
	for _, entries := range []int{0, 16, 100, 1024, 4096} {
		c, mask := refTable(entries)
		b := &refBimodal{counters: c, mask: mask}
		check(fmt.Sprintf("%d entries, 0 bits", entries), NewPredictor(entries, 0), b.predict)
		for k := uint(1); k <= 20; k++ {
			g := newRefGshare(entries, k)
			check(fmt.Sprintf("%d entries, %d bits", entries, k), NewPredictor(entries, k), g.predict)
		}
	}
}
