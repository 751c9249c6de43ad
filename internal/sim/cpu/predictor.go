// Package cpu models the per-core front-end structures whose behaviour
// feeds the evaluation's metrics: a 2-bit saturating-counter branch
// predictor (branch MPKI, %time handling mispredictions) and a data TLB
// (TLB MPKI, avg cycles between TLB misses — Table 1 template 4's example).
package cpu

import "fmt"

// Predictor is a gshare branch predictor: a table of 2-bit saturating
// counters indexed by a PC hash XORed with a shift register of the most
// recent outcomes, which lets it capture correlated branches. With zero
// history bits the register stays 0 and the index is the PC hash alone:
// the classic bimodal predictor.
type Predictor struct {
	counters []uint8
	mask     uint64
	history  uint64
	histMask uint64
	stats    BranchStats
}

// BranchStats counts predictor outcomes.
type BranchStats struct {
	Predictions uint64
	Mispredicts uint64
}

// NewPredictor builds a predictor with the given number of counters
// (rounded up to a power of two, minimum 16) and history length in bits
// (clamped to the index width). Counters start weakly taken.
func NewPredictor(entries int, historyBits uint) *Predictor {
	n, idxBits := 16, uint(4)
	for n < entries {
		n <<= 1
		idxBits++
	}
	historyBits = min(historyBits, idxBits)
	c := make([]uint8, n)
	for i := range c {
		c[i] = 2 // weakly taken
	}
	return &Predictor{counters: c, mask: uint64(n - 1), histMask: 1<<historyBits - 1}
}

// Predict consumes the actual outcome of the branch at pc and reports
// whether the predictor mispredicted it, updating the counter and the
// history.
func (p *Predictor) Predict(pc uint64, taken bool) (mispredict bool) {
	idx := ((pc >> 2) ^ p.history) & p.mask
	ctr := p.counters[idx]
	predictTaken := ctr >= 2
	mispredict = predictTaken != taken
	if taken && ctr < 3 {
		p.counters[idx] = ctr + 1
	}
	if !taken && ctr > 0 {
		p.counters[idx] = ctr - 1
	}
	// Shift the outcome in, then mask: with no history bits nothing stays.
	p.history <<= 1
	if taken {
		p.history |= 1
	}
	p.history &= p.histMask
	p.stats.Predictions++
	if mispredict {
		p.stats.Mispredicts++
	}
	return mispredict
}

// Stats returns a copy of the counters.
func (p *Predictor) Stats() BranchStats { return p.stats }

// Reset restores every counter to weakly taken and clears the history and
// the statistics, as in a freshly built predictor.
func (p *Predictor) Reset() {
	for i := range p.counters {
		p.counters[i] = 2
	}
	p.history = 0
	p.stats = BranchStats{}
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
