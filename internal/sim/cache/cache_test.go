package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

func mustNew(t *testing.T, size, ways, block int) *Cache {
	t.Helper()
	c, err := New(Config{Name: "test", SizeBytes: size, Ways: ways, BlockSize: block}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 2, BlockSize: 64},
		{SizeBytes: 1024, Ways: 0, BlockSize: 64},
		{SizeBytes: 1024, Ways: 2, BlockSize: 0},
		{SizeBytes: 1024, Ways: 2, BlockSize: 48},   // not power of two
		{SizeBytes: 64 * 3, Ways: 2, BlockSize: 64}, // blocks not divisible by ways
		{SizeBytes: 4, Ways: 2, BlockSize: 2},       // no room below the tag for state bits
	}
	for _, cfg := range bad {
		if _, err := New(cfg, nil); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	if c := mustNew(t, 4, 1, 1); c.Sets() != 4 {
		t.Errorf("4 one-byte blocks should make 4 sets, got %d", c.Sets())
	}
	c := mustNew(t, 32*1024, 8, 64)
	if c.Sets() != 64 || c.Ways() != 8 {
		t.Errorf("32KB/8-way/64B should have 64 sets, got %d/%d", c.Sets(), c.Ways())
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := mustNew(t, 1024, 2, 64)
	if res := c.Access(0x1000, false); res.Hit {
		t.Error("first access should miss")
	}
	if res := c.Access(0x1000, false); !res.Hit {
		t.Error("second access should hit")
	}
	// Same block, different offset: still a hit.
	if res := c.Access(0x103F, false); !res.Hit {
		t.Error("same-block access should hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats %+v, want 2 hits 1 miss", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way cache with 8 sets of 64B blocks: addresses 64*8 apart collide.
	c := mustNew(t, 1024, 2, 64)
	setStride := uint64(64 * 8)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	res := c.Access(d, false)
	if !res.Evicted || res.EvictedAddr != b {
		t.Errorf("expected eviction of %#x, got %+v", b, res)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Error("LRU victim selection wrong")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := mustNew(t, 1024, 2, 64)
	setStride := uint64(64 * 8)
	c.Access(0, true) // dirty
	c.Access(setStride, false)
	res := c.Access(2*setStride, false) // evicts the dirty line
	if !res.Writeback {
		t.Errorf("dirty eviction should report writeback: %+v", res)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writeback count %d, want 1", c.Stats().Writebacks)
	}
}

func TestInvalidate(t *testing.T) {
	c := mustNew(t, 1024, 2, 64)
	c.Access(0x40, true)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Errorf("invalidate of dirty resident line = (%v,%v)", present, dirty)
	}
	if c.Contains(0x40) {
		t.Error("line still resident after invalidate")
	}
	present, _ = c.Invalidate(0x40)
	if present {
		t.Error("double invalidate should report absent")
	}
}

func TestContainsDoesNotTouchLRU(t *testing.T) {
	c := mustNew(t, 1024, 2, 64)
	setStride := uint64(64 * 8)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Access(b, false)
	// Probing a must NOT refresh it; the next conflict then evicts a.
	if !c.Contains(a) {
		t.Fatal("a should be resident")
	}
	res := c.Access(d, false)
	if res.EvictedAddr != a {
		t.Errorf("Contains must not refresh LRU; evicted %#x, want %#x", res.EvictedAddr, a)
	}
}

func TestFlushRatio(t *testing.T) {
	c := mustNew(t, 4096, 4, 64)
	for i := uint64(0); i < 64; i++ {
		c.Access(i*64, false)
	}
	dropped := c.FlushRatio(0.5)
	if dropped < 28 || dropped > 36 {
		t.Errorf("FlushRatio(0.5) dropped %d of 64, want ≈32", dropped)
	}
	if c.FlushRatio(0) != 0 {
		t.Error("FlushRatio(0) should be a no-op")
	}
	total := 0
	for i := uint64(0); i < 64; i++ {
		if c.Contains(i * 64) {
			total++
		}
	}
	if total != 64-dropped {
		t.Errorf("resident %d after dropping %d of 64", total, dropped)
	}
	if c.FlushRatio(2) == 0 { // ratio ≥ 1 flushes everything remaining
		t.Error("FlushRatio(≥1) should flush remaining lines")
	}
}

// Working set within capacity: after a warmup pass, everything hits.
func TestWorkingSetFitsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		c, err := New(Config{SizeBytes: 8192, Ways: 4, BlockSize: 64}, nil)
		if err != nil {
			return false
		}
		r := randx.New(seed)
		// 32 distinct blocks spread over distinct sets: 8192/64 = 128 blocks,
		// 32 sets. Use one block per set to avoid conflict evictions.
		blocks := make([]uint64, 32)
		for i := range blocks {
			blocks[i] = uint64(i) * 64
		}
		for _, b := range blocks {
			c.Access(b, false)
		}
		for i := 0; i < 200; i++ {
			b := blocks[r.Intn(len(blocks))]
			if !c.Access(b, false).Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Invariant: hits + misses equals accesses; evictions never exceed misses.
func TestStatsInvariantProperty(t *testing.T) {
	f := func(seed uint64, nr uint16) bool {
		c, err := New(Config{SizeBytes: 2048, Ways: 2, BlockSize: 64}, nil)
		if err != nil {
			return false
		}
		r := randx.New(seed)
		n := int(nr%2000) + 1
		for i := 0; i < n; i++ {
			c.Access(uint64(r.Intn(1<<14))&^63, r.Bernoulli(0.3))
		}
		st := c.Stats()
		return st.Hits+st.Misses == uint64(n) &&
			st.Evictions <= st.Misses &&
			st.Writebacks <= st.Evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBlockAddr(t *testing.T) {
	c := mustNew(t, 1024, 2, 64)
	if got := c.BlockAddr(0x12345); got != 0x12340 {
		t.Errorf("BlockAddr = %#x, want 0x12340", got)
	}
}

func TestFIFOIgnoresRecency(t *testing.T) {
	c, err := New(Config{SizeBytes: 1024, Ways: 2, BlockSize: 64, Policy: FIFO}, nil)
	if err != nil {
		t.Fatal(err)
	}
	setStride := uint64(64 * 8)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // recency refresh must NOT save a under FIFO
	res := c.Access(d, false)
	if res.EvictedAddr != a {
		t.Errorf("FIFO should evict the oldest fill (a=%#x), evicted %#x", a, res.EvictedAddr)
	}
}

func TestRandomPolicyDeterministic(t *testing.T) {
	mk := func() *Cache {
		c, err := New(Config{SizeBytes: 2048, Ways: 4, BlockSize: 64, Policy: Random}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	run := func(c *Cache) Stats {
		r := randx.New(5)
		for i := 0; i < 5000; i++ {
			c.Access(uint64(r.Intn(1<<13))&^63, r.Bernoulli(0.3))
		}
		return c.Stats()
	}
	a, b := run(mk()), run(mk())
	if a != b {
		t.Errorf("random policy not replicable: %+v vs %+v", a, b)
	}
	// Sanity: misses+hits still account for every access.
	if a.Hits+a.Misses != 5000 {
		t.Errorf("stats do not sum: %+v", a)
	}
}

func TestPolicyDifferencesShowUnderThrash(t *testing.T) {
	// A cyclic working set one block larger than a set's ways is LRU's
	// pathological case (0% hit) where FIFO behaves identically but
	// Random gets some hits.
	missRate := func(p Policy) float64 {
		c, err := New(Config{SizeBytes: 512, Ways: 8, BlockSize: 64, Policy: p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// 1 set of 8 ways; cycle over 9 blocks.
		for i := 0; i < 4500; i++ {
			c.Access(uint64(i%9)*64, false)
		}
		st := c.Stats()
		return float64(st.Misses) / float64(st.Hits+st.Misses)
	}
	lru := missRate(LRU)
	rnd := missRate(Random)
	if lru < 0.99 {
		t.Errorf("LRU on a cyclic overset should thrash, miss rate %.3f", lru)
	}
	if rnd >= lru {
		t.Errorf("random (%.3f) should beat LRU (%.3f) on the cyclic overset", rnd, lru)
	}
}

func TestBadPolicyRejected(t *testing.T) {
	if _, err := New(Config{SizeBytes: 1024, Ways: 2, BlockSize: 64, Policy: Policy(7)}, nil); err == nil {
		t.Error("unknown policy should error")
	}
	if LRU.String() != "lru" || FIFO.String() != "fifo" || Random.String() != "random" {
		t.Error("policy names wrong")
	}
}

// TestNewReuseRule pins which arrays New takes over from the cache it
// replaces: those that hold the new geometry and are at most maxReuse
// times it. The 512 kB l2half L2 takes the 3 MB Table 2 L2's arrays and
// hands them back, while a 64 MiB L2's arrays are too large to keep
// behind a Table 2 L2.
func TestNewReuseRule(t *testing.T) {
	l2 := func(size int, reuse *Cache) *Cache {
		t.Helper()
		c, err := New(Config{Name: "l2", SizeBytes: size, Ways: 16, BlockSize: 64}, reuse)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	shares := func(a, b *Cache) bool { return &a.keys[0] == &b.keys[0] && &a.stamps[0] == &b.stamps[0] }
	table2 := l2(3<<20, nil)
	half := l2(512<<10, table2)
	if !shares(half, table2) {
		t.Error("the l2half L2 did not reuse the Table 2 L2's arrays")
	}
	back := l2(3<<20, half)
	if !shares(back, table2) {
		t.Error("the Table 2 L2 did not take its arrays back from the l2half L2")
	}
	if len(back.keys) != 3<<20/64 {
		t.Errorf("reused keys hold %d ways, want %d", len(back.keys), 3<<20/64)
	}
	huge := l2(64<<20, back)
	if shares(huge, back) {
		t.Error("a 64 MiB L2 reused arrays too small for it")
	}
	after := l2(3<<20, huge)
	if shares(after, huge) || cap(after.keys) != 3<<20/64 {
		t.Errorf("a Table 2 L2 kept a 64 MiB L2's arrays (capacity %d)", cap(after.keys))
	}
}

// TestReusedCacheMatchesFresh: a cache built over a used one, whose keys
// and stamps are full of stale lines, behaves exactly as a fresh cache
// under every policy.
func TestReusedCacheMatchesFresh(t *testing.T) {
	for _, p := range []Policy{LRU, FIFO, Random} {
		old, err := New(Config{SizeBytes: 64 << 10, Ways: 8, BlockSize: 64, Policy: p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := randx.New(uint64(p) + 1)
		for i := 0; i < 20000; i++ {
			old.Access(uint64(r.Intn(1<<16))*64, r.Bernoulli(0.3))
		}
		cfg := Config{SizeBytes: 16 << 10, Ways: 4, BlockSize: 64, Policy: p}
		reused, err := New(cfg, old)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			addr, write := uint64(r.Intn(1<<12))*64, r.Bernoulli(0.3)
			if got, want := reused.Access(addr, write), fresh.Access(addr, write); got != want {
				t.Fatalf("%v access %d: reused cache %+v, fresh %+v", p, i, got, want)
			}
		}
		if reused.Stats() != fresh.Stats() {
			t.Errorf("%v: reused cache stats %+v, fresh %+v", p, reused.Stats(), fresh.Stats())
		}
	}
}
