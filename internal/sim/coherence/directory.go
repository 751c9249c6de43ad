// Package coherence implements the MESI directory protocol of the simulated
// system (Table 2: "MESI directory"). The directory lives beside the shared
// L2 and tracks, per block, which cores hold the line and in which state.
// The model is timing-oriented: it reports which protocol actions an access
// triggers (invalidations, owner writebacks, upgrades) so the machine model
// can charge crossbar and memory latency; data movement itself is not
// simulated.
package coherence

import "fmt"

// State is a block's directory-visible state.
type State int

// MESI states as seen by the directory. Exclusive and Modified both imply a
// single owner; the directory conservatively tracks Exclusive separately so
// silent E→M upgrades cost nothing, as in real MESI.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "I"
	}
}

type entry struct {
	block   uint64
	state   State
	sharers uint64 // bitmask of cores holding the line
	owner   int    // valid when state is Exclusive or Modified
}

// Protocol selects the coherence protocol variant.
type Protocol int

const (
	// MESI grants Exclusive on a sole read, making the subsequent write a
	// silent E→M upgrade (Table 2's protocol).
	MESI Protocol = iota
	// MSI has no Exclusive state: a sole reader holds Shared, so every
	// first write pays an upgrade transaction. Kept for the protocol
	// ablation.
	MSI
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == MSI {
		return "MSI"
	}
	return "MESI"
}

// Directory tracks coherence state for every block resident anywhere on
// chip.
//
// Entries live in a flat slab rather than as individually heap-allocated
// values: directory churn (canneal touches hundreds of thousands of blocks
// per run) would otherwise dominate the simulator's allocation profile. A
// block that loses its last holder keeps its slab slot, marked Invalid:
// eviction-heavy workloads re-touch the same blocks constantly, and a state
// write plus a later lookup hit is far cheaper than a delete/re-insert
// pair. The live counter maintains TrackedBlocks under this scheme.
//
// A block finds its slot through index, an open-addressed hash table of
// slab positions plus one (0 marks an empty bucket). Its size is a power of
// two, a block's probe starts at the top bits of its Fibonacci hash and
// moves linearly, and the table doubles before it passes half full. Since
// no slot is ever given up, the table needs no deletion.
type Directory struct {
	cores    int
	protocol Protocol
	index    []int32
	shift    uint // 64 − log2(len(index)): hash bits that pick a bucket
	slab     []entry
	live     int // entries not in state Invalid
	// invScratch and holderScratch back the slices returned via
	// Action.InvalidatedCores and DropBlock; see the aliasing note on Action.
	invScratch    []int
	holderScratch []int
	stats         Stats
}

// Stats counts protocol actions.
type Stats struct {
	ReadMisses    uint64
	WriteMisses   uint64
	Invalidations uint64 // sharer copies invalidated by upgrades/writes
	OwnerForwards uint64 // dirty data forwarded/written back from an owner
	Upgrades      uint64 // S→M upgrades that only needed invalidations
}

// New builds a MESI directory for the given core count (≤ 64).
func New(cores int) (*Directory, error) {
	return NewWithProtocol(cores, MESI)
}

// NewWithProtocol builds a directory running the given protocol variant.
func NewWithProtocol(cores int, p Protocol) (*Directory, error) {
	if cores <= 0 || cores > 64 {
		return nil, fmt.Errorf("coherence: core count %d outside 1..64", cores)
	}
	if p != MESI && p != MSI {
		return nil, fmt.Errorf("coherence: unknown protocol %d", p)
	}
	return &Directory{cores: cores, protocol: p,
		index: make([]int32, 1<<initialIndexBits), shift: 64 - initialIndexBits}, nil
}

// initialIndexBits sizes a new directory's index at 1024 buckets (4 KiB),
// enough for 512 blocks before the first doubling.
const initialIndexBits = 10

// Reset drops all tracked blocks and zeroes the counters while keeping the
// index table and slab capacity for reuse by a pooled runner.
func (d *Directory) Reset() {
	clear(d.index)
	d.slab = d.slab[:0]
	d.live = 0
	d.stats = Stats{}
}

// Action describes the coherence work an access caused; the machine model
// converts these to latency.
//
// InvalidatedCores aliases a scratch buffer owned by the Directory and is
// only valid until the next Read/Write call; callers must consume it
// immediately (the machine model does) or copy it.
type Action struct {
	// Invalidated is the number of remote copies invalidated.
	Invalidated int
	// InvalidatedCores lists the cores whose copies were invalidated so
	// their private caches can be kept in sync.
	InvalidatedCores []int
	// OwnerWriteback is set when a Modified remote copy had to be written
	// back / forwarded.
	OwnerWriteback bool
	// OwnerCore is the core that held the Modified copy.
	OwnerCore int
	// WasMiss is set when the block was not in the requesting core's state
	// at all (directory read/write miss, as opposed to an upgrade).
	WasMiss bool
	// Upgrade is set when a Shared holder's write required a directory
	// upgrade transaction (always in MSI; in MESI only when the line was
	// genuinely Shared rather than Exclusive).
	Upgrade bool
}

// find returns the index bucket that holds block's slab position, or the
// empty bucket where it belongs.
func (d *Directory) find(block uint64) int {
	mask := len(d.index) - 1
	h := int((block * 0x9e3779b97f4a7c15) >> d.shift)
	for {
		s := d.index[h]
		if s == 0 || d.slab[s-1].block == block {
			return h
		}
		h = (h + 1) & mask
	}
}

// lookup returns block's entry, or nil if the block was never tracked.
func (d *Directory) lookup(block uint64) *entry {
	if s := d.index[d.find(block)]; s != 0 {
		return &d.slab[s-1]
	}
	return nil
}

// get returns block's entry, adding an Invalid one if it has none.
func (d *Directory) get(block uint64) *entry {
	h := d.find(block)
	if s := d.index[h]; s != 0 {
		return &d.slab[s-1]
	}
	if 2*(len(d.slab)+1) > len(d.index) {
		d.index = make([]int32, 2*len(d.index))
		d.shift--
		for i := range d.slab {
			d.index[d.find(d.slab[i].block)] = int32(i + 1)
		}
		h = d.find(block)
	}
	d.slab = append(d.slab, entry{block: block, state: Invalid, owner: -1})
	d.index[h] = int32(len(d.slab))
	return &d.slab[len(d.slab)-1]
}

// invalidate marks an entry untracked in place, keeping its slab slot and
// index bucket for cheap re-acquisition.
func (d *Directory) invalidate(e *entry) {
	e.state = Invalid
	e.sharers = 0
	e.owner = -1
	d.live--
}

func (d *Directory) checkCore(core int) {
	if core < 0 || core >= d.cores {
		panic(fmt.Sprintf("coherence: core %d out of range", core))
	}
}

// Read records core's read of block and returns the triggered actions.
func (d *Directory) Read(core int, block uint64) Action {
	d.checkCore(core)
	e := d.get(block)
	bit := uint64(1) << uint(core)
	var act Action
	switch e.state {
	case Invalid:
		if d.protocol == MSI {
			e.state = Shared
			e.owner = -1
		} else {
			e.state = Exclusive
			e.owner = core
		}
		e.sharers = bit
		d.live++
		act.WasMiss = true
		d.stats.ReadMisses++
	case Shared:
		if e.sharers&bit == 0 {
			e.sharers |= bit
			act.WasMiss = true
			d.stats.ReadMisses++
		}
	case Exclusive, Modified:
		if e.owner == core {
			break // silent hit
		}
		if e.state == Modified {
			act.OwnerWriteback = true
			act.OwnerCore = e.owner
			d.stats.OwnerForwards++
		}
		// Owner downgrades to Shared; reader joins.
		e.state = Shared
		e.sharers |= bit
		e.owner = -1
		act.WasMiss = true
		d.stats.ReadMisses++
	}
	return act
}

// Write records core's write of block and returns the triggered actions.
func (d *Directory) Write(core int, block uint64) Action {
	d.checkCore(core)
	e := d.get(block)
	bit := uint64(1) << uint(core)
	var act Action
	switch e.state {
	case Invalid:
		d.live++
		act.WasMiss = true
		d.stats.WriteMisses++
	case Shared:
		// Invalidate all other sharers; upgrade if we were one of them.
		d.invScratch = d.invScratch[:0]
		for c := 0; c < d.cores; c++ {
			cb := uint64(1) << uint(c)
			if c != core && e.sharers&cb != 0 {
				act.Invalidated++
				d.invScratch = append(d.invScratch, c)
				d.stats.Invalidations++
			}
		}
		act.InvalidatedCores = d.invScratch
		if e.sharers&bit != 0 {
			act.Upgrade = true
			d.stats.Upgrades++
		} else {
			act.WasMiss = true
			d.stats.WriteMisses++
		}
	case Exclusive, Modified:
		if e.owner == core {
			break // silent E→M or M hit
		}
		if e.state == Modified {
			act.OwnerWriteback = true
			act.OwnerCore = e.owner
			d.stats.OwnerForwards++
		}
		act.Invalidated++
		d.invScratch = append(d.invScratch[:0], e.owner)
		act.InvalidatedCores = d.invScratch
		d.stats.Invalidations++
		act.WasMiss = true
		d.stats.WriteMisses++
	}
	e.state = Modified
	e.owner = core
	e.sharers = bit
	return act
}

// Evict removes core's copy of block from the directory (L1 eviction or
// back-invalidation). It returns whether the evicted copy was Modified.
func (d *Directory) Evict(core int, block uint64) (wasModified bool) {
	d.checkCore(core)
	e := d.lookup(block)
	if e == nil {
		return false
	}
	bit := uint64(1) << uint(core)
	switch e.state {
	case Shared:
		e.sharers &^= bit
		if e.sharers == 0 {
			d.invalidate(e)
		}
	case Exclusive, Modified:
		if e.owner == core {
			wasModified = e.state == Modified
			d.invalidate(e)
		}
	}
	return wasModified
}

// DropBlock removes every core's copy (L2 eviction with inclusion). It
// returns the cores that held the line so the machine can back-invalidate
// their L1s, and whether a modified copy existed. The returned slice aliases
// a scratch buffer valid until the next DropBlock call.
func (d *Directory) DropBlock(block uint64) (holders []int, hadModified bool) {
	e := d.lookup(block)
	if e == nil || e.state == Invalid {
		return nil, false
	}
	d.holderScratch = d.holderScratch[:0]
	for c := 0; c < d.cores; c++ {
		if e.sharers&(uint64(1)<<uint(c)) != 0 {
			d.holderScratch = append(d.holderScratch, c)
		}
	}
	hadModified = e.state == Modified
	d.invalidate(e)
	return d.holderScratch, hadModified
}

// StateOf returns the directory state of a block and its holders, for tests
// and invariant checks.
func (d *Directory) StateOf(block uint64) (State, []int) {
	e := d.lookup(block)
	if e == nil || e.state == Invalid {
		return Invalid, nil
	}
	var holders []int
	for c := 0; c < d.cores; c++ {
		if e.sharers&(uint64(1)<<uint(c)) != 0 {
			holders = append(holders, c)
		}
	}
	return e.state, holders
}

// CheckInvariants verifies the MESI safety properties over every tracked
// block: Modified/Exclusive imply exactly one holder which is the owner,
// and Shared implies at least one holder. It returns the first violation.
func (d *Directory) CheckInvariants() error {
	for i := range d.slab {
		e := &d.slab[i]
		block := e.block
		holders := 0
		for c := 0; c < d.cores; c++ {
			if e.sharers&(uint64(1)<<uint(c)) != 0 {
				holders++
			}
		}
		switch e.state {
		case Modified, Exclusive:
			if holders != 1 {
				return fmt.Errorf("coherence: block %#x in %v with %d holders", block, e.state, holders)
			}
			if e.owner < 0 || e.sharers != uint64(1)<<uint(e.owner) {
				return fmt.Errorf("coherence: block %#x owner/sharers mismatch", block)
			}
		case Shared:
			if holders == 0 {
				return fmt.Errorf("coherence: block %#x Shared with no holders", block)
			}
		case Invalid:
			// Untracked slot retained for reuse: must hold no sharers.
			if holders != 0 {
				return fmt.Errorf("coherence: block %#x Invalid with %d holders", block, holders)
			}
		}
	}
	return nil
}

// Stats returns a copy of the action counters.
func (d *Directory) Stats() Stats { return d.stats }

// TrackedBlocks returns the number of blocks with directory state (slots
// retained in state Invalid for reuse are not counted).
func (d *Directory) TrackedBlocks() int { return d.live }
