// Custom workloads: model your own application and evaluate it rigorously.
//
// This example defines a custom two-stage pipeline (think: ingest +
// transform) with the workload builder API, runs an SPA campaign on the
// simulated Table 2 system, and answers two questions no mean-of-3-runs
// methodology can answer honestly:
//
//  1. What runtime do 90% of executions stay under (with 90% confidence)?
//  2. Is the run-to-run variation within 1%, for at least 80% of execution
//     pairs (a consistency hyperproperty)?
//
// Run with: go run ./examples/custom
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/workload"
)

func main() {
	profile, err := workload.NewPipelineProfile("ingestor", workload.PipelineSpec{
		Items:         48,
		QueueCapacity: 3,
		Shared: workload.RegionSpec{
			SizeBytes: 2 << 20, // a 2 MB shared table
			ZipfSkew:  0.9,     // with a hot head
		},
		Private: workload.RegionSpec{
			SizeBytes:    512 << 10,
			HotFraction:  0.9, // tight per-item buffers
			HotBlocks:    48,
			AdvanceEvery: 120,
		},
		Stages: []workload.PipelineStageSpec{
			{Threads: 2, ComputeMean: 250, ComputeJitter: 60, MemOps: 60,
				WriteFraction: 0.3, SharedFrac: 0.5, Branches: 4},
			{Threads: 3, ComputeMean: 600, ComputeJitter: 150, MemOps: 90,
				WriteFraction: 0.2, SharedFrac: 0.6, Branches: 6},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The same program on every execution, as in the paper: build it once.
	// A Program is read-only, so every run replays it.
	prog := profile.Build(1.0, randx.New(0x0BEEF))
	cfg := sim.DefaultConfig()
	runtime := func(seed uint64) (float64, error) {
		res, err := sim.RunProgram(prog, cfg, randx.New(seed))
		if err != nil {
			return 0, err
		}
		return res.Metrics[sim.MetricRuntime], nil
	}

	// Question 1: the F = 0.9 runtime bound, push-button.
	analysis, err := core.Analyze(runtime, core.Params{F: 0.9, C: 0.9}, core.Options{Batch: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %d executions of the custom pipeline\n", len(analysis.Samples))
	fmt.Printf("90%% of executions finish within [%.6g s, %.6g s] (confidence 90%%)\n",
		analysis.Interval.Lo, analysis.Interval.Hi)

	// Question 2: run-to-run consistency as a hyperproperty over the same
	// samples: do pairs of executions agree within 1%?
	med := analysis.Samples[len(analysis.Samples)/2]
	res, err := smc.CheckHyperFixed(analysis.Samples, 2, smc.MaxPairwiseGapWithin(0.01*med), 0.8, 0.9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconsistency: %d/%d execution pairs within 1%% — verdict %s (C_CP %.3f)\n",
		res.Satisfied, res.Samples, res.Assertion, res.Confidence)
	switch res.Assertion {
	case smc.Positive:
		fmt.Println("→ performance is reproducible enough to quote a single number")
	case smc.Negative:
		fmt.Println("→ quote distributions, not single numbers, for this workload")
	default:
		fmt.Println("→ not enough evidence either way; collect more executions")
	}
}
