package coherence

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

func mustNew(t *testing.T, cores int) *Directory {
	t.Helper()
	d, err := New(cores)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("0 cores should error")
	}
	if _, err := New(65); err == nil {
		t.Error("65 cores should error")
	}
	if _, err := New(4); err != nil {
		t.Errorf("4 cores should be fine: %v", err)
	}
}

func TestReadExclusiveThenShared(t *testing.T) {
	d := mustNew(t, 4)
	act := d.Read(0, 0x100)
	if !act.WasMiss {
		t.Error("first read should miss")
	}
	if st, holders := d.StateOf(0x100); st != Exclusive || len(holders) != 1 || holders[0] != 0 {
		t.Errorf("after first read: %v %v", st, holders)
	}
	// Second core reads: downgrade to Shared, no writeback (was clean E).
	act = d.Read(1, 0x100)
	if !act.WasMiss || act.OwnerWriteback {
		t.Errorf("E→S on remote read: %+v", act)
	}
	if st, holders := d.StateOf(0x100); st != Shared || len(holders) != 2 {
		t.Errorf("after second read: %v %v", st, holders)
	}
	// Re-read by a sharer is silent.
	act = d.Read(0, 0x100)
	if act.WasMiss {
		t.Error("sharer re-read should be silent")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := mustNew(t, 4)
	d.Read(0, 0x200)
	d.Read(1, 0x200)
	d.Read(2, 0x200)
	act := d.Write(1, 0x200)
	if act.Invalidated != 2 {
		t.Errorf("upgrade should invalidate 2 sharers, got %d", act.Invalidated)
	}
	if act.WasMiss {
		t.Error("upgrade by a sharer is not a directory miss")
	}
	if st, holders := d.StateOf(0x200); st != Modified || len(holders) != 1 || holders[0] != 1 {
		t.Errorf("after upgrade: %v %v", st, holders)
	}
	if d.Stats().Upgrades != 1 {
		t.Errorf("upgrade count %d", d.Stats().Upgrades)
	}
}

func TestWriteAfterRemoteModified(t *testing.T) {
	d := mustNew(t, 4)
	d.Write(0, 0x300)
	act := d.Write(1, 0x300)
	if !act.OwnerWriteback || act.OwnerCore != 0 {
		t.Errorf("M→M migration should write back the owner: %+v", act)
	}
	if act.Invalidated != 1 {
		t.Errorf("old owner should be invalidated: %+v", act)
	}
	if st, holders := d.StateOf(0x300); st != Modified || holders[0] != 1 {
		t.Errorf("after migration: %v %v", st, holders)
	}
}

func TestReadAfterRemoteModified(t *testing.T) {
	d := mustNew(t, 2)
	d.Write(0, 0x400)
	act := d.Read(1, 0x400)
	if !act.OwnerWriteback || act.OwnerCore != 0 {
		t.Errorf("M→S should write back: %+v", act)
	}
	if st, holders := d.StateOf(0x400); st != Shared || len(holders) != 2 {
		t.Errorf("after M→S: %v %v", st, holders)
	}
}

func TestSilentUpgradesAndHits(t *testing.T) {
	d := mustNew(t, 2)
	d.Read(0, 0x500) // E
	act := d.Write(0, 0x500)
	if act.WasMiss || act.Invalidated != 0 || act.OwnerWriteback {
		t.Errorf("silent E→M should cost nothing: %+v", act)
	}
	act = d.Write(0, 0x500)
	if act.WasMiss {
		t.Error("M hit should be silent")
	}
	act = d.Read(0, 0x500)
	if act.WasMiss {
		t.Error("owner read hit should be silent")
	}
}

func TestEvict(t *testing.T) {
	d := mustNew(t, 2)
	d.Write(0, 0x600)
	if !d.Evict(0, 0x600) {
		t.Error("evicting a Modified copy should report modified")
	}
	if st, _ := d.StateOf(0x600); st != Invalid {
		t.Errorf("block should be untracked after owner eviction, got %v", st)
	}
	// Sharer eviction leaves the other sharer.
	d.Read(0, 0x700)
	d.Read(1, 0x700)
	if d.Evict(0, 0x700) {
		t.Error("evicting a Shared copy is not modified")
	}
	if st, holders := d.StateOf(0x700); st != Shared || len(holders) != 1 || holders[0] != 1 {
		t.Errorf("after sharer eviction: %v %v", st, holders)
	}
	if d.Evict(3-2, 0x700); d.TrackedBlocks() != 0 {
		t.Error("last sharer eviction should untrack the block")
	}
	if d.Evict(0, 0xDEAD) {
		t.Error("evicting an untracked block is a no-op")
	}
}

func TestDropBlock(t *testing.T) {
	d := mustNew(t, 4)
	d.Read(0, 0x800)
	d.Read(2, 0x800)
	holders, hadMod := d.DropBlock(0x800)
	if len(holders) != 2 || hadMod {
		t.Errorf("DropBlock = %v, %v", holders, hadMod)
	}
	if d.TrackedBlocks() != 0 {
		t.Error("block should be gone")
	}
	d.Write(1, 0x900)
	holders, hadMod = d.DropBlock(0x900)
	if len(holders) != 1 || holders[0] != 1 || !hadMod {
		t.Errorf("DropBlock of modified = %v, %v", holders, hadMod)
	}
	if h, m := d.DropBlock(0xAAA); h != nil || m {
		t.Error("dropping untracked block should be empty")
	}
}

// MESI safety invariants hold under arbitrary interleaved traffic — the
// model-checking-style property test.
func TestInvariantsUnderRandomTrafficProperty(t *testing.T) {
	f := func(seed uint64) bool {
		d, err := New(4)
		if err != nil {
			return false
		}
		r := randx.New(seed)
		for i := 0; i < 3000; i++ {
			core := r.Intn(4)
			block := uint64(r.Intn(32)) * 64 // small block pool to force sharing
			switch r.Intn(4) {
			case 0:
				d.Read(core, block)
			case 1:
				d.Write(core, block)
			case 2:
				d.Evict(core, block)
			case 3:
				d.DropBlock(block)
			}
			if d.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCheckCorePanics(t *testing.T) {
	d := mustNew(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range core should panic")
		}
	}()
	d.Read(5, 0x100)
}

func TestMSIProtocolNoExclusive(t *testing.T) {
	d, err := NewWithProtocol(2, MSI)
	if err != nil {
		t.Fatal(err)
	}
	d.Read(0, 0x100)
	if st, holders := d.StateOf(0x100); st != Shared || len(holders) != 1 {
		t.Errorf("MSI sole read should be Shared: %v %v", st, holders)
	}
	// A write by the sole sharer pays an upgrade in MSI.
	act := d.Write(0, 0x100)
	if !act.Upgrade || act.WasMiss || act.Invalidated != 0 {
		t.Errorf("MSI sole-sharer write should be a pure upgrade: %+v", act)
	}
	if d.Stats().Upgrades != 1 {
		t.Errorf("upgrade count %d", d.Stats().Upgrades)
	}
	// The same sequence in MESI is silent.
	m, _ := New(2)
	m.Read(0, 0x100)
	actMESI := m.Write(0, 0x100)
	if actMESI.Upgrade || actMESI.WasMiss {
		t.Errorf("MESI E→M should be silent: %+v", actMESI)
	}
	if _, err := NewWithProtocol(2, Protocol(9)); err == nil {
		t.Error("unknown protocol should error")
	}
	if MSI.String() != "MSI" || MESI.String() != "MESI" {
		t.Error("protocol names wrong")
	}
}

func TestMSIInvariantsUnderTraffic(t *testing.T) {
	d, err := NewWithProtocol(4, MSI)
	if err != nil {
		t.Fatal(err)
	}
	r := randx.New(77)
	for i := 0; i < 2000; i++ {
		core := r.Intn(4)
		block := uint64(r.Intn(24)) * 64
		switch r.Intn(3) {
		case 0:
			d.Read(core, block)
		case 1:
			d.Write(core, block)
		case 2:
			d.Evict(core, block)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// mapDirectory is the reference model: the directory as it was before the
// open-addressed index, with a Go map from block to entry.
type mapDirectory struct {
	cores    int
	protocol Protocol
	entries  map[uint64]*entry
	live     int
	stats    Stats
}

func (d *mapDirectory) get(block uint64) *entry {
	e, ok := d.entries[block]
	if !ok {
		e = &entry{block: block, state: Invalid, owner: -1}
		d.entries[block] = e
	}
	return e
}

func (d *mapDirectory) invalidate(e *entry) {
	e.state, e.sharers, e.owner = Invalid, 0, -1
	d.live--
}

func (d *mapDirectory) holders(e *entry) []int {
	var hs []int
	for c := 0; c < d.cores; c++ {
		if e.sharers&(uint64(1)<<uint(c)) != 0 {
			hs = append(hs, c)
		}
	}
	return hs
}

func (d *mapDirectory) read(core int, block uint64) Action {
	e := d.get(block)
	bit := uint64(1) << uint(core)
	var act Action
	switch e.state {
	case Invalid:
		if d.protocol == MSI {
			e.state, e.owner = Shared, -1
		} else {
			e.state, e.owner = Exclusive, core
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
			break
		}
		if e.state == Modified {
			act.OwnerWriteback, act.OwnerCore = true, e.owner
			d.stats.OwnerForwards++
		}
		e.state, e.owner = Shared, -1
		e.sharers |= bit
		act.WasMiss = true
		d.stats.ReadMisses++
	}
	return act
}

func (d *mapDirectory) write(core int, block uint64) Action {
	e := d.get(block)
	bit := uint64(1) << uint(core)
	var act Action
	switch e.state {
	case Invalid:
		d.live++
		act.WasMiss = true
		d.stats.WriteMisses++
	case Shared:
		for _, c := range d.holders(e) {
			if c != core {
				act.Invalidated++
				act.InvalidatedCores = append(act.InvalidatedCores, c)
				d.stats.Invalidations++
			}
		}
		if e.sharers&bit != 0 {
			act.Upgrade = true
			d.stats.Upgrades++
		} else {
			act.WasMiss = true
			d.stats.WriteMisses++
		}
	case Exclusive, Modified:
		if e.owner == core {
			break
		}
		if e.state == Modified {
			act.OwnerWriteback, act.OwnerCore = true, e.owner
			d.stats.OwnerForwards++
		}
		act.Invalidated++
		act.InvalidatedCores = []int{e.owner}
		d.stats.Invalidations++
		act.WasMiss = true
		d.stats.WriteMisses++
	}
	e.state, e.owner, e.sharers = Modified, core, bit
	return act
}

func (d *mapDirectory) evict(core int, block uint64) bool {
	e, ok := d.entries[block]
	if !ok {
		return false
	}
	bit := uint64(1) << uint(core)
	wasModified := false
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

func (d *mapDirectory) dropBlock(block uint64) ([]int, bool) {
	e, ok := d.entries[block]
	if !ok || e.state == Invalid {
		return nil, false
	}
	hs, hadModified := d.holders(e), e.state == Modified
	d.invalidate(e)
	return hs, hadModified
}

func (d *mapDirectory) stateOf(block uint64) (State, []int) {
	e, ok := d.entries[block]
	if !ok || e.state == Invalid {
		return Invalid, nil
	}
	return e.state, d.holders(e)
}

// TestDirectoryMatchesMapModel drives the directory and the map-based
// model with one seeded stream of reads, writes, evictions and L2 drops
// over enough distinct blocks to double the index table several times,
// with a Reset between rounds. After every operation the results,
// StateOf the block, TrackedBlocks and Stats must agree; CheckInvariants
// and StateOf over every block are checked at each table growth and
// every 1000 operations.
func TestDirectoryMatchesMapModel(t *testing.T) {
	for _, proto := range []Protocol{MESI, MSI} {
		const cores, distinct = 4, 12000
		d, err := NewWithProtocol(cores, proto)
		if err != nil {
			t.Fatal(err)
		}
		r := randx.New(uint64(31 + proto))
		// Region-like addresses: runs of consecutive blocks at 64 bases a
		// large power of two apart, whose low bits collide.
		blocks := make([]uint64, distinct)
		for i := range blocks {
			blocks[i] = uint64(i%64)<<40 | uint64(i/64)
		}
		for round := 0; round < 3; round++ {
			d.Reset()
			m := &mapDirectory{cores: cores, protocol: proto, entries: map[uint64]*entry{}}
			initial := len(d.index)
			size := len(d.index)
			sweep := func(op int) {
				t.Helper()
				if err := d.CheckInvariants(); err != nil {
					t.Fatalf("%v round %d op %d: %v", proto, round, op, err)
				}
				for _, b := range blocks {
					gs, gh := d.StateOf(b)
					ws, wh := m.stateOf(b)
					if gs != ws || !slices.Equal(gh, wh) {
						t.Fatalf("%v round %d op %d: block %#x is %v%v, model %v%v", proto, round, op, b, gs, gh, ws, wh)
					}
				}
			}
			// Each round reaches further into the block set, so later
			// rounds start from a grown, cleared table.
			span := distinct * (round + 1) / 3
			for op := 0; op < 40000; op++ {
				core, block := r.Intn(cores), blocks[r.Intn(span)]
				switch k := r.Intn(10); {
				case k < 5:
					got, want := d.Read(core, block), m.read(core, block)
					if !reflect.DeepEqual(normAction(got), normAction(want)) {
						t.Fatalf("%v op %d: Read(%d, %#x) = %+v, model %+v", proto, op, core, block, got, want)
					}
				case k < 8:
					got, want := d.Write(core, block), m.write(core, block)
					if !reflect.DeepEqual(normAction(got), normAction(want)) {
						t.Fatalf("%v op %d: Write(%d, %#x) = %+v, model %+v", proto, op, core, block, got, want)
					}
				case k < 9:
					if got, want := d.Evict(core, block), m.evict(core, block); got != want {
						t.Fatalf("%v op %d: Evict(%d, %#x) = %v, model %v", proto, op, core, block, got, want)
					}
				default:
					gh, gm := d.DropBlock(block)
					wh, wm := m.dropBlock(block)
					if !slices.Equal(gh, wh) || gm != wm {
						t.Fatalf("%v op %d: DropBlock(%#x) = %v %v, model %v %v", proto, op, block, gh, gm, wh, wm)
					}
				}
				gs, gh := d.StateOf(block)
				ws, wh := m.stateOf(block)
				if gs != ws || !slices.Equal(gh, wh) {
					t.Fatalf("%v op %d: block %#x is %v%v, model %v%v", proto, op, block, gs, gh, ws, wh)
				}
				if d.TrackedBlocks() != m.live || d.Stats() != m.stats {
					t.Fatalf("%v op %d: tracked %d stats %+v, model %d %+v", proto, op, d.TrackedBlocks(), d.Stats(), m.live, m.stats)
				}
				if len(d.index) != size || op%1000 == 0 {
					size = len(d.index)
					sweep(op)
				}
			}
			sweep(-1)
			if round == 0 && len(d.index) < 8*initial {
				t.Fatalf("%v: index grew from %d to only %d buckets", proto, initial, len(d.index))
			}
		}
	}
}

// normAction drops the empty-versus-nil distinction of InvalidatedCores.
func normAction(a Action) Action {
	if len(a.InvalidatedCores) == 0 {
		a.InvalidatedCores = nil
	}
	return a
}
