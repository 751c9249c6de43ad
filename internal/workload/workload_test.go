package workload

import (
	"testing"

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

// drain consumes a generator fully and returns its ops.
func drain(t *testing.T, g ThreadGen, cap int) []Op {
	t.Helper()
	var ops []Op
	for {
		op, ok := g.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
		if len(ops) > cap {
			t.Fatalf("generator exceeded %d ops without terminating", cap)
		}
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
		for tid, g := range prog.Threads {
			ops := drain(t, g, 2_000_000)
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
		for _, g := range prog.Threads {
			for _, op := range drain(t, g, 5_000_000) {
				switch op.Kind {
				case OpProduce:
					produces[op.ID]++
				case OpConsume:
					consumes[op.ID]++
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
		for tid, g := range prog.Threads {
			held := map[int]int{}
			for _, op := range drain(t, g, 2_000_000) {
				switch op.Kind {
				case OpLock:
					held[op.ID]++
					if held[op.ID] > 1 {
						t.Fatalf("%s thread %d: re-acquired lock %d", name, tid, op.ID)
					}
				case OpUnlock:
					held[op.ID]--
					if held[op.ID] < 0 {
						t.Fatalf("%s thread %d: unlock of free lock %d", name, tid, op.ID)
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
		for tid, g := range prog.Threads {
			counts[tid] = map[int]int{}
			for _, op := range drain(t, g, 2_000_000) {
				if op.Kind == OpBarrier {
					counts[tid][op.ID]++
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
		opsA := drain(t, a.Threads[tid], 5_000_000)
		opsB := drain(t, b.Threads[tid], 5_000_000)
		if len(opsA) != len(opsB) {
			t.Fatalf("thread %d stream lengths differ", tid)
		}
		for i := range opsA {
			if opsA[i] != opsB[i] {
				t.Fatalf("thread %d op %d differs: %+v vs %+v", tid, i, opsA[i], opsB[i])
			}
		}
	}
}

func TestScaleChangesWork(t *testing.T) {
	p, _ := ByName("swaptions")
	small := p.Build(0.05, randx.New(2))
	big := p.Build(0.5, randx.New(2))
	nSmall := len(drain(t, small.Threads[0], 5_000_000))
	nBig := len(drain(t, big.Threads[0], 5_000_000))
	if nBig <= nSmall {
		t.Errorf("scale 0.5 (%d ops) should exceed scale 0.05 (%d ops)", nBig, nSmall)
	}
}

// Addresses must stay inside their declared regions so private regions of
// different threads never alias.
func TestPrivateRegionsDisjoint(t *testing.T) {
	p, _ := ByName("swaptions") // pure private traffic
	prog := p.Build(0.1, randx.New(9))
	for tid, g := range prog.Threads {
		lo := privBase(tid)
		hi := lo + PrivateStep
		for _, op := range drain(t, g, 2_000_000) {
			if op.Kind != OpLoad && op.Kind != OpStore {
				continue
			}
			if op.Addr < lo || op.Addr >= hi {
				t.Fatalf("thread %d address %#x escapes [%#x, %#x)", tid, op.Addr, lo, hi)
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

// TestLoopGenDrainAllocatesNothing: once the first iteration has sized the
// op buffer, draining further iterations of the same size reuses it.
func TestLoopGenDrainAllocatesNothing(t *testing.T) {
	r := randx.New(3)
	g := newDataParallelGen(dataParallelParams{
		iters: 100, computeMean: 200, computeJitter: 40, instrsPerCycle: 1.2,
		memOps: 80, writeFrac: 0.3, sharedFrac: 0.4, branches: 6, branchBias: 0.9,
		private:   newRegion(privBase(0), 1<<20, 0, r.Split(1)).withLocality(0.9, 64, 160),
		shared:    newRegion(SharedBase, 4<<20, 0.7, r.Split(2)),
		lockID:    -1,
		barrierID: -1,
	}, r.Split(3))
	drain := func() {
		it := g.iter
		for g.iter == it || g.head < len(g.queue) {
			if _, ok := g.Next(); !ok {
				t.Fatal("stream ended early")
			}
		}
	}
	drain()
	if allocs := testing.AllocsPerRun(50, drain); allocs != 0 {
		t.Fatalf("draining an iteration allocated %v times", allocs)
	}
}
