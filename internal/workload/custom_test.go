package workload

import (
	"testing"

	"repro/internal/randx"
)

func validPipeline() PipelineSpec {
	return PipelineSpec{
		Items: 24, QueueCapacity: 2,
		Shared:  RegionSpec{SizeBytes: 1 << 20, ZipfSkew: 0.6},
		Private: RegionSpec{SizeBytes: 256 << 10, HotFraction: 0.9, HotBlocks: 32, AdvanceEvery: 80},
		Stages: []PipelineStageSpec{
			{Threads: 2, ComputeMean: 200, ComputeJitter: 40, MemOps: 30, WriteFraction: 0.3, SharedFrac: 0.4, Branches: 4},
			{Threads: 3, ComputeMean: 400, ComputeJitter: 80, MemOps: 40, WriteFraction: 0.2, SharedFrac: 0.5, Branches: 5},
		},
	}
}

func TestNewPipelineProfileBalanced(t *testing.T) {
	p, err := NewPipelineProfile("mypipe", validPipeline())
	if err != nil {
		t.Fatal(err)
	}
	prog := p.Build(1.0, randx.New(9))
	// Source + 2 + 3 + sink = 7 threads; 3 queues.
	if len(prog.Threads) != 7 || len(prog.Queues) != 3 {
		t.Fatalf("pipeline shape wrong: %d threads, %d queues", len(prog.Threads), len(prog.Queues))
	}
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
	for q, n := range produces {
		if consumes[q] != n {
			t.Errorf("queue %d imbalanced: %d produces, %d consumes", q, n, consumes[q])
		}
	}
}

func TestNewPipelineProfileScalingKeepsDivisibility(t *testing.T) {
	p, err := NewPipelineProfile("mypipe", validPipeline())
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{0.05, 0.37, 2.0} {
		prog := p.Build(scale, randx.New(1))
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
		for q, n := range produces {
			if consumes[q] != n {
				t.Fatalf("scale %g queue %d imbalanced", scale, q)
			}
		}
	}
}

func TestNewPipelineProfileValidation(t *testing.T) {
	if _, err := NewPipelineProfile("", validPipeline()); err == nil {
		t.Error("empty name should error")
	}
	muts := []func(*PipelineSpec){
		func(s *PipelineSpec) { s.Items = 0 },
		func(s *PipelineSpec) { s.QueueCapacity = 0 },
		func(s *PipelineSpec) { s.Stages = nil },
		func(s *PipelineSpec) { s.Stages[0].Threads = 0 },
		func(s *PipelineSpec) { s.Stages[0].Threads = 5 }, // 24 % 5 != 0
		func(s *PipelineSpec) { s.Stages[1].ComputeMean = 0 },
		func(s *PipelineSpec) { s.Shared.SizeBytes = 1 },
		func(s *PipelineSpec) { s.Private.SizeBytes = 1 },
		func(s *PipelineSpec) { s.Shared.ZipfSkew = -1 },
	}
	for i, mut := range muts {
		spec := validPipeline()
		mut(&spec)
		if _, err := NewPipelineProfile("x", spec); err == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
}

func TestLCM(t *testing.T) {
	if lcm(2, 3) != 6 || lcm(4, 6) != 12 || lcm(1, 7) != 7 {
		t.Error("lcm wrong")
	}
}
