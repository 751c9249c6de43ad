// Package cache implements the set-associative caches of the simulated
// memory hierarchy (Table 2 of the paper): per-core L1 instruction and data
// caches and a shared inclusive L2, all with 64-byte blocks. Replacement is
// true-LRU by default, with FIFO and (deterministic) random policies
// available for the replacement ablation.
package cache

import (
	"errors"
	"fmt"
)

// Policy selects a replacement policy.
type Policy int

const (
	// LRU evicts the least recently used way (the default).
	LRU Policy = iota
	// FIFO evicts the oldest-filled way regardless of use.
	FIFO
	// Random evicts a pseudo-random way, deterministically derived from
	// the access sequence so simulations stay replicable.
	Random
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	default:
		return "lru"
	}
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Cache is a set-associative, write-back cache.
//
// Each way's tag state is one key, tag<<2 | dirty<<1 | valid, with 0 for an
// invalid way; keys are stored sets × ways, row-major, so a lookup compares
// 8 bytes per way and a 16-way set spans two host cache lines. Each way's
// LRU/FIFO stamp sits at the same index of a parallel array that only a
// fill, an LRU hit and victim choice touch.
type Cache struct {
	name      string
	sets      int
	ways      int
	blockBits uint
	// setShift/setMask enable the shift-and-mask index fast path when the
	// set count is a power of two (every Table 2 cache except the 3 MB L2);
	// setMask == 0 selects the general modulo path.
	setShift uint
	setMask  uint64
	policy   Policy
	keys     []uint64
	// stamps holds a logical clock value per way: larger means more
	// recently used (LRU) or filled (FIFO). An invalid way's stamp is
	// stale and never read, since victim choice takes invalid ways first.
	stamps   []uint64
	clock    uint64
	rngState uint64 // xorshift state for the Random policy
	stats    Stats
}

// Key bits below the tag.
const (
	validBit = 1
	dirtyBit = 2
)

// initialRNGState seeds the deterministic xorshift stream of the Random
// replacement policy; Reset restores it so a reused cache replays the same
// victim sequence as a freshly built one.
const initialRNGState = 0x9E3779B97F4A7C15

// Config sizes a cache.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	BlockSize int
	// Policy selects the replacement policy (default LRU).
	Policy Policy
}

// maxReuse bounds the arrays New takes over: at most maxReuse times what
// the new geometry needs. 8 lets the 512 kB l2half L2 (8 192 ways) reuse
// the 3 MB Table 2 L2's 49 152, six times its need, while a 64 MiB L2's
// 1 048 576 ways, 21 times the Table 2 L2's, are dropped rather than
// pinning 16 MB behind a small cache.
const maxReuse = 8

// New builds a cache. Size, associativity, and block size must be positive
// powers of two with Size = sets × ways × block.
//
// reuse, if not nil, is a cache the new one replaces, and it must not be
// used afterwards. New takes over its key and stamp arrays when their
// capacity holds the new geometry and is at most maxReuse times it. The
// result is the cache a nil reuse gives: every key is cleared, and a stale
// stamp belongs to an invalid way, whose stamp is never read (see Reset).
func New(cfg Config, reuse *Cache) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockSize <= 0 {
		return nil, errors.New("cache: non-positive geometry")
	}
	if cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		return nil, fmt.Errorf("cache: block size %d not a power of two", cfg.BlockSize)
	}
	blockBits := uint(0)
	for 1<<blockBits < cfg.BlockSize {
		blockBits++
	}
	rows := cfg.SizeBytes / cfg.BlockSize
	if rows%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d blocks not divisible by %d ways", rows, cfg.Ways)
	}
	sets := rows / cfg.Ways
	if sets == 0 {
		return nil, fmt.Errorf("cache: zero sets (size %d too small for %d ways)", cfg.SizeBytes, cfg.Ways)
	}
	// Sets need not be a power of two (Table 2's 3MB/16-way L2 has 3072);
	// indexing uses modulo, as Ruby does for such geometries.
	if cfg.Policy < LRU || cfg.Policy > Random {
		return nil, fmt.Errorf("cache: unknown replacement policy %d", cfg.Policy)
	}
	// A key holds the tag above two state bits, so block offset and set
	// index together must drop at least two address bits.
	if uint64(cfg.BlockSize)*uint64(sets) < 4 {
		return nil, fmt.Errorf("cache: %d sets of %d-byte blocks leave no room for the line state bits", sets, cfg.BlockSize)
	}
	n := sets * cfg.Ways
	var keys, stamps []uint64
	if reuse != nil && n <= cap(reuse.keys) && cap(reuse.keys) <= maxReuse*n {
		keys, stamps = reuse.keys[:n], reuse.stamps[:n]
		clear(keys)
	} else {
		keys, stamps = make([]uint64, n), make([]uint64, n)
	}
	c := &Cache{
		name:      cfg.Name,
		sets:      sets,
		ways:      cfg.Ways,
		blockBits: blockBits,
		policy:    cfg.Policy,
		keys:      keys,
		stamps:    stamps,
		rngState:  initialRNGState,
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
		for 1<<c.setShift < sets {
			c.setShift++
		}
	}
	return c, nil
}

// Reset returns the cache to its post-New state — every line invalid, the
// LRU clock and the Random-policy stream at their initial values, all
// counters zero — without reallocating the tag arrays. It exists so a
// pooled simulation runner can reuse the multi-megabyte arrays across runs
// while staying bit-identical to a freshly constructed cache. The stamps
// of invalid ways are never read, so they are left as they are.
func (c *Cache) Reset() {
	clear(c.keys)
	c.clock = 0
	c.rngState = initialRNGState
	c.stats = Stats{}
}

// BlockAddr returns the block-aligned address (tag+set) for addr.
func (c *Cache) BlockAddr(addr uint64) uint64 { return addr >> c.blockBits << c.blockBits }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.blockBits
	if c.setMask != 0 {
		// Power-of-two set count: identical (set, tag) to the modulo path,
		// computed with a mask and a shift.
		return int(blk & c.setMask), blk >> c.setShift
	}
	return int(blk % uint64(c.sets)), blk / uint64(c.sets)
}

// AccessResult describes the outcome of a cache access.
type AccessResult struct {
	Hit bool
	// Evicted is set when a valid line was displaced to make room.
	Evicted bool
	// EvictedAddr is the block address of the displaced line.
	EvictedAddr uint64
	// Writeback is set when the displaced line was dirty.
	Writeback bool
}

// Access looks up addr, allocating on miss (displacing the LRU way), and
// marks the line dirty on writes. It returns what happened so the caller
// can model latency, inclusion, and coherence.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	set, tag := c.index(addr)
	base := set * c.ways
	keys := c.keys[base : base+c.ways : base+c.ways]
	c.clock++

	want := tag<<2 | validBit
	for w, k := range keys {
		if k&^dirtyBit == want {
			if c.policy == LRU {
				c.stamps[base+w] = c.clock
			}
			if write {
				keys[w] = k | dirtyBit
			}
			c.stats.Hits++
			return AccessResult{Hit: true}
		}
	}
	// Miss: the victim is the first invalid way, else the oldest stamp
	// (FIFO never refreshes stamps on hits), else the Random stream's draw.
	victim := -1
	for w, k := range keys {
		if k == 0 {
			victim = w
			break
		}
	}
	if victim == -1 {
		if c.policy == Random {
			// xorshift64*: deterministic, independent of map ordering.
			c.rngState ^= c.rngState << 13
			c.rngState ^= c.rngState >> 7
			c.rngState ^= c.rngState << 17
			victim = int(c.rngState % uint64(c.ways))
		} else {
			stamps := c.stamps[base : base+c.ways : base+c.ways]
			victim = 0
			oldest := stamps[0]
			for w, st := range stamps {
				if st < oldest {
					victim, oldest = w, st
				}
			}
		}
	}
	res := AccessResult{}
	if k := keys[victim]; k != 0 {
		res.Evicted = true
		res.EvictedAddr = c.reconstruct(set, k>>2)
		if k&dirtyBit != 0 {
			res.Writeback = true
			c.stats.Writebacks++
		}
		c.stats.Evictions++
	}
	if write {
		want |= dirtyBit
	}
	keys[victim] = want
	c.stamps[base+victim] = c.clock
	c.stats.Misses++
	return res
}

// reconstruct rebuilds a block address from set and tag.
func (c *Cache) reconstruct(set int, tag uint64) uint64 {
	return (tag*uint64(c.sets) + uint64(set)) << c.blockBits
}

// find returns the index in keys of addr's resident way, or -1.
func (c *Cache) find(addr uint64) int {
	set, tag := c.index(addr)
	base := set * c.ways
	want := tag<<2 | validBit
	for w, k := range c.keys[base : base+c.ways] {
		if k&^dirtyBit == want {
			return base + w
		}
	}
	return -1
}

// Contains reports whether addr's block is resident, without touching LRU
// state or statistics.
func (c *Cache) Contains(addr uint64) bool { return c.find(addr) >= 0 }

// Invalidate drops addr's block if resident, returning whether it was dirty
// (the caller models the writeback). Used for coherence invalidations and
// L2-inclusion back-invalidations.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	i := c.find(addr)
	if i < 0 {
		return false, false
	}
	dirty = c.keys[i]&dirtyBit != 0
	c.keys[i] = 0
	return true, dirty
}

// FlushRatio invalidates roughly the given fraction of resident lines
// (deterministically: every k-th valid line), modeling the cold-cache effect
// of a context switch or migration. It returns the number of lines dropped.
func (c *Cache) FlushRatio(ratio float64) int {
	if ratio <= 0 {
		return 0
	}
	if ratio >= 1 {
		ratio = 1
	}
	stride := int(1 / ratio)
	if stride < 1 {
		stride = 1
	}
	dropped, seen := 0, 0
	for i, k := range c.keys {
		if k == 0 {
			continue
		}
		if seen%stride == 0 {
			c.keys[i] = 0
			dropped++
		}
		seen++
	}
	return dropped
}

// Blocks returns the block addresses of all resident lines, in no
// particular order. It exists for invariant checks (e.g. verifying L2
// inclusion) and does not touch LRU state or statistics.
func (c *Cache) Blocks() []uint64 {
	var out []uint64
	for i, k := range c.keys {
		if k != 0 {
			out = append(out, c.reconstruct(i/c.ways, k>>2))
		}
	}
	return out
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Sets and Ways expose geometry for tests.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }
