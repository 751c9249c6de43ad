package cache

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/randx"
)

// refCache is the cache as it was before tags and stamps moved into packed
// arrays: one 24-byte line per way, one pass over the set per access.
// TestCacheMatchesLineReference drives it and a Cache with the same
// seeded operations.
type refCache struct {
	sets, ways int
	blockBits  uint
	policy     Policy
	lines      []refLine
	clock      uint64
	rngState   uint64
	stats      Stats
}

type refLine struct {
	tag          uint64
	valid, dirty bool
	lru          uint64
}

func newRef(sets, ways int, blockBits uint, policy Policy) *refCache {
	return &refCache{sets: sets, ways: ways, blockBits: blockBits, policy: policy,
		lines: make([]refLine, sets*ways), rngState: initialRNGState}
}

func (c *refCache) reset() {
	clear(c.lines)
	c.clock = 0
	c.rngState = initialRNGState
	c.stats = Stats{}
}

func (c *refCache) index(addr uint64) (int, uint64) {
	blk := addr >> c.blockBits
	return int(blk % uint64(c.sets)), blk / uint64(c.sets)
}

func (c *refCache) access(addr uint64, write bool) AccessResult {
	set, tag := c.index(addr)
	lines := c.lines[set*c.ways : (set+1)*c.ways]
	c.clock++
	victim, minIdx := -1, -1
	oldest := ^uint64(0)
	for w := range lines {
		ln := &lines[w]
		if ln.valid {
			if ln.tag == tag {
				if c.policy == LRU {
					ln.lru = c.clock
				}
				if write {
					ln.dirty = true
				}
				c.stats.Hits++
				return AccessResult{Hit: true}
			}
			if ln.lru < oldest {
				oldest, minIdx = ln.lru, w
			}
		} else if victim == -1 {
			victim = w
		}
	}
	if victim == -1 {
		if c.policy == Random {
			c.rngState ^= c.rngState << 13
			c.rngState ^= c.rngState >> 7
			c.rngState ^= c.rngState << 17
			victim = int(c.rngState % uint64(c.ways))
		} else {
			victim = minIdx
		}
	}
	ln := &lines[victim]
	var res AccessResult
	if ln.valid {
		res.Evicted = true
		res.EvictedAddr = (ln.tag*uint64(c.sets) + uint64(set)) << c.blockBits
		if ln.dirty {
			res.Writeback = true
			c.stats.Writebacks++
		}
		c.stats.Evictions++
	}
	*ln = refLine{tag: tag, valid: true, dirty: write, lru: c.clock}
	c.stats.Misses++
	return res
}

func (c *refCache) way(addr uint64) *refLine {
	set, tag := c.index(addr)
	for w := set * c.ways; w < (set+1)*c.ways; w++ {
		if ln := &c.lines[w]; ln.valid && ln.tag == tag {
			return ln
		}
	}
	return nil
}

func (c *refCache) invalidate(addr uint64) (present, dirty bool) {
	ln := c.way(addr)
	if ln == nil {
		return false, false
	}
	ln.valid = false
	return true, ln.dirty
}

func (c *refCache) flushRatio(ratio float64) int {
	if ratio <= 0 {
		return 0
	}
	stride := max(int(1/min(ratio, 1)), 1)
	dropped, seen := 0, 0
	for i := range c.lines {
		if !c.lines[i].valid {
			continue
		}
		if seen%stride == 0 {
			c.lines[i].valid = false
			dropped++
		}
		seen++
	}
	return dropped
}

func (c *refCache) blocks() []uint64 {
	var out []uint64
	for i, ln := range c.lines {
		if ln.valid {
			out = append(out, (ln.tag*uint64(c.sets)+uint64(i/c.ways))<<c.blockBits)
		}
	}
	return out
}

// TestCacheMatchesLineReference checks the packed cache against refCache
// on every Table 2 geometry the simulator builds and under every policy:
// seeded Access, Invalidate, FlushRatio and Reset calls over a few hot sets
// (the first and last among them) whose tag pools exceed the
// associativity, plus scattered addresses. After every operation the
// operation's result, Contains on two addresses, Blocks as a set and Stats
// must agree.
func TestCacheMatchesLineReference(t *testing.T) {
	geometries := []struct {
		name       string
		size, ways int
	}{
		{"l1i", 32 << 10, 2},
		{"l1d", 32 << 10, 8},
		{"l2half", 512 << 10, 16},
		{"l2double", 1 << 20, 16},
		{"l2", 3 << 20, 16},
	}
	for _, g := range geometries {
		for _, policy := range []Policy{LRU, FIFO, Random} {
			t.Run(fmt.Sprintf("%s/%s", g.name, policy), func(t *testing.T) {
				c, err := New(Config{SizeBytes: g.size, Ways: g.ways, BlockSize: 64, Policy: policy}, nil)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRef(c.Sets(), g.ways, 6, policy)
				compareWithReference(t, c, ref, randx.New(uint64(g.size)+uint64(policy)))
			})
		}
	}
}

func compareWithReference(t *testing.T, c *Cache, ref *refCache, r *randx.Rand) {
	sets := uint64(c.Sets())
	hot := []uint64{0, sets - 1, sets / 2, sets/2 + 1}
	tags := uint64(2*c.Ways() + 1)
	addr := func() uint64 {
		if r.Bernoulli(0.1) {
			return r.Uint64() >> 20
		}
		set, tag := hot[r.Intn(len(hot))], uint64(r.Intn(int(tags)))
		return (tag*sets+set)<<6 | uint64(r.Intn(64))
	}
	writebacks, dirtyInvalidations := 0, 0
	for i := 0; i < 3000; i++ {
		a := addr()
		var op string
		switch u := r.Float64(); {
		case u < 0.88:
			write := r.Bernoulli(0.3)
			op = fmt.Sprintf("Access(%#x, %v)", a, write)
			got, want := c.Access(a, write), ref.access(a, write)
			if got != want {
				t.Fatalf("op %d %s = %+v, reference %+v", i, op, got, want)
			}
			if got.Writeback {
				writebacks++
			}
		case u < 0.98:
			op = fmt.Sprintf("Invalidate(%#x)", a)
			p, d := c.Invalidate(a)
			rp, rd := ref.invalidate(a)
			if p != rp || d != rd {
				t.Fatalf("op %d %s = %v, %v, reference %v, %v", i, op, p, d, rp, rd)
			}
			if d {
				dirtyInvalidations++
			}
		case u < 0.995:
			ratio := []float64{0.1, 0.25, 0.3, 0.5, 1, 2}[r.Intn(6)]
			op = fmt.Sprintf("FlushRatio(%g)", ratio)
			if got, want := c.FlushRatio(ratio), ref.flushRatio(ratio); got != want {
				t.Fatalf("op %d %s = %d, reference %d", i, op, got, want)
			}
		default:
			op = "Reset()"
			c.Reset()
			ref.reset()
		}
		for _, q := range []uint64{a, addr()} {
			if got, want := c.Contains(q), ref.way(q) != nil; got != want {
				t.Fatalf("after op %d %s: Contains(%#x) = %v, reference %v", i, op, q, got, want)
			}
		}
		got, want := c.Blocks(), ref.blocks()
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("after op %d %s: Blocks = %x, reference %x", i, op, got, want)
		}
		if c.Stats() != ref.stats {
			t.Fatalf("after op %d %s: Stats = %+v, reference %+v", i, op, c.Stats(), ref.stats)
		}
	}
	if writebacks == 0 || dirtyInvalidations == 0 {
		t.Fatalf("the drive never evicted (%d) or invalidated (%d) a dirty line; %+v", writebacks, dirtyInvalidations, c.Stats())
	}
}
