package workload

import (
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/randx"
)

func TestNamesAndByName(t *testing.T) {
	names := Names()
	if len(names) != 9 {
		t.Fatalf("expected 9 profiles, got %d", len(names))
	}
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			t.Errorf("ByName(%q): %v", n, err)
			continue
		}
		if p.Name != n {
			t.Errorf("profile name mismatch: %q vs %q", p.Name, n)
		}
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("unknown profile should error")
	}
}

func TestAllProfilesBuildAndTerminate(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog := p.Build(0.05, randx.New(1))
		if len(prog.Threads) == 0 {
			t.Errorf("%s: no threads", name)
		}
		for tid, ops := range prog.Threads {
			if len(ops) == 0 {
				t.Errorf("%s thread %d: empty stream", name, tid)
			}
		}
	}
}

// Queue produce/consume counts must balance exactly per queue — the
// deadlock-freedom precondition of the machine model.
func TestPipelineQueueBalance(t *testing.T) {
	for _, name := range []string{"ferret", "dedup"} {
		p, _ := ByName(name)
		prog := p.Build(0.3, randx.New(7))
		produces := map[int]int{}
		consumes := map[int]int{}
		for _, ops := range prog.Threads {
			for _, op := range ops {
				switch op.Kind() {
				case OpProduce:
					produces[op.ID()]++
				case OpConsume:
					consumes[op.ID()]++
				}
			}
		}
		if len(produces) == 0 {
			t.Fatalf("%s: no queue traffic", name)
		}
		for q, n := range produces {
			if consumes[q] != n {
				t.Errorf("%s queue %d: %d produces vs %d consumes", name, q, n, consumes[q])
			}
		}
		for _, spec := range prog.Queues {
			if spec.Capacity < 1 {
				t.Errorf("%s queue %d: capacity %d", name, spec.ID, spec.Capacity)
			}
		}
	}
}

// Lock and unlock ops must pair up in order within each thread.
func TestLockPairing(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		prog := p.Build(0.1, randx.New(3))
		for tid, ops := range prog.Threads {
			held := map[int]int{}
			for _, op := range ops {
				switch op.Kind() {
				case OpLock:
					held[op.ID()]++
					if held[op.ID()] > 1 {
						t.Fatalf("%s thread %d: re-acquired lock %d", name, tid, op.ID())
					}
				case OpUnlock:
					held[op.ID()]--
					if held[op.ID()] < 0 {
						t.Fatalf("%s thread %d: unlock of free lock %d", name, tid, op.ID())
					}
				}
			}
			for id, n := range held {
				if n != 0 {
					t.Errorf("%s thread %d: lock %d left held", name, tid, id)
				}
			}
		}
	}
}

// Barrier ops must appear the same number of times in every participant.
func TestBarrierBalance(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		prog := p.Build(0.1, randx.New(5))
		if len(prog.Barriers) == 0 {
			continue
		}
		counts := make([]map[int]int, len(prog.Threads))
		for tid, ops := range prog.Threads {
			counts[tid] = map[int]int{}
			for _, op := range ops {
				if op.Kind() == OpBarrier {
					counts[tid][op.ID()]++
				}
			}
		}
		for _, spec := range prog.Barriers {
			if spec.Participants != len(prog.Threads) {
				t.Errorf("%s barrier %d: %d participants for %d threads",
					name, spec.ID, spec.Participants, len(prog.Threads))
			}
			first := counts[0][spec.ID]
			for tid := range prog.Threads {
				if counts[tid][spec.ID] != first {
					t.Errorf("%s barrier %d: thread %d hits %d times vs %d",
						name, spec.ID, tid, counts[tid][spec.ID], first)
				}
			}
		}
	}
}

func TestBuildDeterministicPerSeed(t *testing.T) {
	p, _ := ByName("ferret")
	a := p.Build(0.1, randx.New(11))
	b := p.Build(0.1, randx.New(11))
	for tid := range a.Threads {
		if !slices.Equal(a.Threads[tid], b.Threads[tid]) {
			t.Fatalf("thread %d streams differ", tid)
		}
	}
	if !slices.Equal(a.shared, b.shared) {
		t.Fatal("shared streams differ")
	}
}

func TestScaleChangesWork(t *testing.T) {
	p, _ := ByName("swaptions")
	small := p.Build(0.05, randx.New(2))
	big := p.Build(0.5, randx.New(2))
	nSmall := len(small.Threads[0])
	nBig := len(big.Threads[0])
	if nBig <= nSmall {
		t.Errorf("scale 0.5 (%d ops) should exceed scale 0.05 (%d ops)", nBig, nSmall)
	}
}

// Addresses must stay inside their declared regions so private regions of
// different threads never alias.
func TestPrivateRegionsDisjoint(t *testing.T) {
	p, _ := ByName("swaptions") // pure private traffic
	prog := p.Build(0.1, randx.New(9))
	for tid, ops := range prog.Threads {
		lo := privBase(tid)
		hi := lo + PrivateStep
		for _, op := range ops {
			if op.Kind() != OpLoad && op.Kind() != OpStore {
				continue
			}
			if op.Addr() < lo || op.Addr() >= hi {
				t.Fatalf("thread %d address %#x escapes [%#x, %#x)", tid, op.Addr(), lo, hi)
			}
		}
	}
}

func TestScaleCountFloor(t *testing.T) {
	if scaleCount(100, 0.001) != 1 {
		t.Error("scaleCount should floor at 1")
	}
	if scaleCount(100, 2) != 200 {
		t.Error("scaleCount should scale linearly")
	}
}

// TestOpSize: a program's ops are its memory, 24 bytes each at most.
func TestOpSize(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n > 24 {
		t.Fatalf("Op takes %d bytes, want at most 24", n)
	}
}

// TestOpFullRange: every field keeps its full range through the packing.
func TestOpFullRange(t *testing.T) {
	const big = math.MaxUint64
	if op := Compute(big, big-1); op.Kind() != OpCompute || op.Cycles() != big || op.Instrs() != big-1 {
		t.Errorf("Compute round trip: %+v", op)
	}
	if op := Store(big); op.Kind() != OpStore || op.Addr() != big {
		t.Errorf("Store round trip: %+v", op)
	}
	if op := Branch(big, true); op.Kind() != OpBranch || op.PC() != big || !op.Taken() {
		t.Errorf("Branch round trip: %+v", op)
	}
	for _, id := range []int{math.MinInt, -1, 0, math.MaxInt} {
		if op := Consume(id); op.Kind() != OpConsume || op.ID() != id {
			t.Errorf("Consume(%d) round trip: %+v", id, op)
		}
	}
}

// TestReplayClaimRule pins the claim rule on a hand-built program: a
// thread reaching an iteration's first op takes the next claim addresses
// of the shared stream as one block, in whatever order the threads get
// there, and private accesses never touch the stream.
func TestReplayClaimRule(t *testing.T) {
	first := func(claim uint32) Op { op := Compute(1, 1); op.claim = claim; return op }
	sharedLoad := Op{kind: OpLoad, shared: true}
	prog := &Program{
		Threads: [][]Op{
			{first(2), sharedLoad, Load(7), sharedLoad, first(1), sharedLoad},
			{first(3), sharedLoad, sharedLoad, sharedLoad},
		},
		shared: []uint64{10, 20, 30, 40, 50, 60},
	}
	var r Replay
	r.Reset(prog)
	// Thread 1 reaches its iteration first, then thread 0 runs to the end.
	var got [2][]uint64
	for _, tid := range []int{1, 0, 0, 1, 1, 0, 0, 0, 0, 1} {
		op, ok := r.Next(tid)
		if !ok {
			t.Fatalf("thread %d ended early", tid)
		}
		if op.Kind() == OpLoad {
			got[tid] = append(got[tid], op.Addr())
		}
	}
	want := [2][]uint64{{40, 7, 50, 60}, {10, 20, 30}}
	for tid := range want {
		if !slices.Equal(got[tid], want[tid]) {
			t.Errorf("thread %d loaded %v, want %v", tid, got[tid], want[tid])
		}
	}
	for tid := range prog.Threads {
		if _, ok := r.Next(tid); ok {
			t.Errorf("thread %d has ops past its stream", tid)
		}
	}
	// A reset replays the same program from the start.
	r.Reset(prog)
	if op, _ := r.Next(0); op.claim != 2 {
		t.Errorf("after Reset thread 0 starts at %+v", op)
	}
	if op, _ := r.Next(0); op.Addr() != 10 {
		t.Errorf("after Reset thread 0's first shared load reads %d, want 10", op.Addr())
	}
}

// TestBuildSharedStream: every profile's claims add up to its shared
// stream, and a replay in any order puts every shared access inside the
// shared mapping.
func TestBuildSharedStream(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		prog := p.Build(0.1, randx.New(4))
		claims, placeholders := 0, 0
		for _, ops := range prog.Threads {
			for _, op := range ops {
				claims += int(op.claim)
				if op.shared {
					placeholders++
				}
			}
		}
		if claims != placeholders || claims != len(prog.shared) {
			t.Fatalf("%s: %d claimed, %d placeholders, %d shared addresses", name, claims, placeholders, len(prog.shared))
		}
		var r Replay
		r.Reset(prog)
		for tid := len(prog.Threads) - 1; tid >= 0; tid-- {
			for {
				op, ok := r.Next(tid)
				if !ok {
					break
				}
				if (op.Kind() == OpLoad || op.Kind() == OpStore) && op.Addr() == 0 {
					t.Fatalf("%s thread %d: unresolved access", name, tid)
				}
			}
		}
		if r.claimed != len(prog.shared) {
			t.Errorf("%s: replay handed out %d of %d shared addresses", name, r.claimed, len(prog.shared))
		}
		for _, a := range prog.shared {
			if RegionIndex(a) != 0 {
				t.Fatalf("%s: shared address %#x outside the shared mapping", name, a)
			}
		}
	}
}

// TestConcurrentBuilds builds every profile at two scales at once, as the
// simulator's program cache does when two arenas miss two scales of one
// profile, and each build equals a serial one. Under -race this checks
// that a Build only reads what its profile captured.
func TestConcurrentBuilds(t *testing.T) {
	scales := []float64{0.01, 0.05}
	for _, p := range fenceProfiles(t) {
		want := make([]string, len(scales))
		for i, scale := range scales {
			want[i] = programDigest(p.Build(scale, randx.New(1)))
		}
		got := make([]string, len(scales))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, scale := range scales {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i] = programDigest(p.Build(scale, randx.New(1)))
			}()
		}
		close(start)
		wg.Wait()
		for i := range scales {
			if got[i] != want[i] {
				t.Errorf("%s at scale %g: a concurrent build differs from the serial one", p.Name, scales[i])
			}
		}
	}
}
