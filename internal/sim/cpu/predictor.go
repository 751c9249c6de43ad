// Package cpu models the per-core front-end structures whose behaviour
// feeds the evaluation's metrics: a 2-bit saturating-counter branch
// predictor (branch MPKI, %time handling mispredictions) and a data TLB
// (TLB MPKI, avg cycles between TLB misses — Table 1 template 4's example).
package cpu

import "fmt"

// BranchPredictor is a table of 2-bit saturating counters indexed by a PC
// hash — the classic bimodal predictor.
type BranchPredictor struct {
	counters []uint8
	mask     uint64
	stats    BranchStats
}

// BranchStats counts predictor outcomes.
type BranchStats struct {
	Predictions uint64
	Mispredicts uint64
}

// NewBranchPredictor builds a predictor with the given number of counters
// (rounded up to a power of two, minimum 16). Counters start weakly taken.
func NewBranchPredictor(entries int) *BranchPredictor {
	n := 16
	for n < entries {
		n <<= 1
	}
	c := make([]uint8, n)
	for i := range c {
		c[i] = 2 // weakly taken
	}
	return &BranchPredictor{counters: c, mask: uint64(n - 1)}
}

// Predict consumes the actual outcome of the branch at pc and reports
// whether the predictor mispredicted it, updating the counter.
func (b *BranchPredictor) Predict(pc uint64, taken bool) (mispredict bool) {
	idx := (pc >> 2) & b.mask
	ctr := b.counters[idx]
	predictTaken := ctr >= 2
	mispredict = predictTaken != taken
	if taken && ctr < 3 {
		b.counters[idx] = ctr + 1
	}
	if !taken && ctr > 0 {
		b.counters[idx] = ctr - 1
	}
	b.stats.Predictions++
	if mispredict {
		b.stats.Mispredicts++
	}
	return mispredict
}

// Stats returns a copy of the counters.
func (b *BranchPredictor) Stats() BranchStats { return b.stats }

// Reset restores every counter to weakly taken and zeroes the statistics, as
// in a freshly built predictor.
func (b *BranchPredictor) Reset() {
	for i := range b.counters {
		b.counters[i] = 2
	}
	b.stats = BranchStats{}
}

// TLB is a fully associative, true-LRU translation lookaside buffer over
// fixed-size pages. The recency order is an intrusive doubly-linked list
// over preallocated nodes, so both hits and evictions are O(1) — the TLB
// sits on every memory access of the simulator, so this matters.
//
// A page finds its node through an open-addressed table rather than a Go
// map: each slot holds a node index + 1 (0 is empty), a page's home slot is
// its Fibonacci hash, collisions probe linearly, and the evicted LRU page
// leaves by backward-shift deletion, so no tombstones build up. The table
// has a power-of-two size of at least twice the entry count, so it is never
// more than half full.
type TLB struct {
	pageBits uint
	table    []int32
	shift    uint // 64 − log2(len(table)): the hash keeps the top bits
	nodes    []tlbNode
	fill     int32 // nodes in use; they are handed out in index order
	head     int32 // most recently used, -1 when empty
	tail     int32 // least recently used, -1 when empty
	stats    TLBStats
}

type tlbNode struct {
	page       uint64
	prev, next int32
	slot       int32 // the table slot pointing at this node
}

// TLBStats counts translation outcomes.
type TLBStats struct {
	Lookups uint64
	Misses  uint64
}

// NewTLB builds a TLB with the given entry count and page size (a power of
// two).
func NewTLB(entries int, pageSize int) (*TLB, error) {
	if entries <= 0 || entries > 1<<30 {
		return nil, fmt.Errorf("cpu: TLB entries %d outside [1, 2^30]", entries)
	}
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("cpu: page size %d not a power of two", pageSize)
	}
	bits := uint(0)
	for 1<<bits < pageSize {
		bits++
	}
	size, shift := 2, uint(63)
	for size < 2*entries {
		size <<= 1
		shift--
	}
	return &TLB{
		pageBits: bits,
		table:    make([]int32, size),
		shift:    shift,
		nodes:    make([]tlbNode, entries),
		head:     -1,
		tail:     -1,
	}, nil
}

// home is page's first probe slot.
func (t *TLB) home(page uint64) int {
	return int((page * 0x9E3779B97F4A7C15) >> t.shift)
}

// unlink removes node i from the recency list.
func (t *TLB) unlink(i int32) {
	n := &t.nodes[i]
	if n.prev >= 0 {
		t.nodes[n.prev].next = n.next
	} else {
		t.head = n.next
	}
	if n.next >= 0 {
		t.nodes[n.next].prev = n.prev
	} else {
		t.tail = n.prev
	}
}

// pushFront makes node i the most recently used.
func (t *TLB) pushFront(i int32) {
	n := &t.nodes[i]
	n.prev = -1
	n.next = t.head
	if t.head >= 0 {
		t.nodes[t.head].prev = i
	}
	t.head = i
	if t.tail < 0 {
		t.tail = i
	}
}

// remove deletes node i's page from the table and returns the slot it
// leaves empty. Each later entry of the probe run moves back into the hole
// unless its home slot lies cyclically in (hole, its slot], where the move
// would put it before its home.
func (t *TLB) remove(i int32) int {
	mask := len(t.table) - 1
	hole := int(t.nodes[i].slot)
	for j := (hole + 1) & mask; t.table[j] != 0; j = (j + 1) & mask {
		n := t.table[j] - 1
		if h := t.home(t.nodes[n].page); (j-h)&mask >= (j-hole)&mask {
			t.table[hole] = n + 1
			t.nodes[n].slot = int32(hole)
			hole = j
		}
	}
	t.table[hole] = 0
	return hole
}

// Lookup translates addr, returning whether it missed. On a miss the page
// is filled, evicting the LRU entry when full.
func (t *TLB) Lookup(addr uint64) (miss bool) {
	page := addr >> t.pageBits
	t.stats.Lookups++
	mask := len(t.table) - 1
	h := t.home(page)
	s := h
	for ; t.table[s] != 0; s = (s + 1) & mask {
		if i := t.table[s] - 1; t.nodes[i].page == page {
			if t.head != i {
				t.unlink(i)
				t.pushFront(i)
			}
			return false
		}
	}
	t.stats.Misses++
	i := t.fill
	if int(i) < len(t.nodes) {
		t.fill++
	} else {
		i = t.tail
		t.unlink(i)
		// The deletion leaves one slot empty; if it lies on page's probe
		// run before s, it is now the first empty slot there. The shifts
		// stop at s, which stays empty.
		if hole := t.remove(i); (hole-h)&mask < (s-h)&mask {
			s = hole
		}
	}
	t.nodes[i] = tlbNode{page: page, slot: int32(s)}
	t.table[s] = i + 1
	t.pushFront(i)
	return true
}

// Flush empties the TLB (context switch).
func (t *TLB) Flush() {
	clear(t.table)
	t.head, t.tail = -1, -1
	t.fill = 0
}

// Stats returns a copy of the counters.
func (t *TLB) Stats() TLBStats { return t.stats }

// Reset flushes all translations and zeroes the statistics (Flush keeps
// them), matching a freshly built TLB.
func (t *TLB) Reset() {
	t.Flush()
	t.stats = TLBStats{}
}

// Resident returns the number of valid entries.
func (t *TLB) Resident() int { return int(t.fill) }

// Gshare is a global-history branch predictor: the PC hash is XORed with a
// shift register of recent outcomes before indexing the counter table,
// letting it capture correlated branches the bimodal table cannot.
type Gshare struct {
	counters []uint8
	mask     uint64
	history  uint64
	histBits uint
	stats    BranchStats
}

// NewGshare builds a gshare predictor with the given table size (rounded
// up to a power of two, minimum 16) and history length in bits (clamped to
// the index width).
func NewGshare(entries int, historyBits uint) *Gshare {
	n := 16
	for n < entries {
		n <<= 1
	}
	idxBits := uint(0)
	for 1<<idxBits < n {
		idxBits++
	}
	if historyBits > idxBits {
		historyBits = idxBits
	}
	c := make([]uint8, n)
	for i := range c {
		c[i] = 2 // weakly taken
	}
	return &Gshare{counters: c, mask: uint64(n - 1), histBits: historyBits}
}

// Predict consumes the branch outcome, updating the counters and the
// global history, and reports whether the prediction was wrong.
func (g *Gshare) Predict(pc uint64, taken bool) (mispredict bool) {
	idx := ((pc >> 2) ^ g.history) & g.mask
	ctr := g.counters[idx]
	predictTaken := ctr >= 2
	mispredict = predictTaken != taken
	if taken && ctr < 3 {
		g.counters[idx] = ctr + 1
	}
	if !taken && ctr > 0 {
		g.counters[idx] = ctr - 1
	}
	g.history = (g.history << 1) & ((1 << g.histBits) - 1)
	if taken {
		g.history |= 1
	}
	g.stats.Predictions++
	if mispredict {
		g.stats.Mispredicts++
	}
	return mispredict
}

// Stats returns a copy of the counters.
func (g *Gshare) Stats() BranchStats { return g.stats }

// Reset restores the counters to weakly taken and clears the global history
// and statistics, as in a freshly built predictor.
func (g *Gshare) Reset() {
	for i := range g.counters {
		g.counters[i] = 2
	}
	g.history = 0
	g.stats = BranchStats{}
}

// Predictor is the interface both branch predictors satisfy, letting the
// machine select one by configuration.
type Predictor interface {
	Predict(pc uint64, taken bool) bool
	Stats() BranchStats
	// Reset restores the predictor to its freshly built state.
	Reset()
}

// Interface checks.
var (
	_ Predictor = (*BranchPredictor)(nil)
	_ Predictor = (*Gshare)(nil)
)
