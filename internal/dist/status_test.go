package dist

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/population"
)

// TestCommittedChunksFoldIntoLabeledGauges runs a real campaign and
// asserts the coordinator turned its own dispatches and commits into
// per-worker labeled series and a populated /statusz table.
func TestCommittedChunksFoldIntoLabeledGauges(t *testing.T) {
	w := startWorker(t)
	addr := w.Addr()

	reg := obs.NewRegistry()
	coord := fastCoord(addr)
	coord.Obs = &obs.Observer{Metrics: reg}

	const runs = 12
	results, err := coord.RunCtx(context.Background(), testJob(), testSeed, runs, population.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != runs {
		t.Fatalf("got %d results, want %d", len(results), runs)
	}

	l := obs.Labels{"worker": addr}
	if got := reg.GaugeL(obs.MetricDistWorkerRunsServed, l).Value(); got != runs {
		t.Errorf("runs_served{worker=%s} = %v, want %d", addr, got, runs)
	}
	if got := reg.GaugeL(obs.MetricDistWorkerInflight, l).Value(); got != 0 {
		t.Errorf("inflight{worker=%s} = %v at job end, want 0", addr, got)
	}
	if got := reg.GaugeL(obs.MetricDistWorkerThroughput, l).Value(); got <= 0 {
		t.Errorf("throughput{worker=%s} = %v, want > 0", addr, got)
	}
	if got := reg.GaugeL(obs.MetricDistWorkerMeanRunSeconds, l).Value(); got <= 0 {
		t.Errorf("mean_run_seconds{worker=%s} = %v, want > 0", addr, got)
	}
	// Adaptive carving picks the chunk count; every ledger must agree on
	// it: the coordinator's status, its worker row, the labeled chunk
	// counter, and the worker's own status.
	st := coord.Status()
	if !st.Done || st.LastError != "" {
		t.Errorf("status not done cleanly: %+v", st)
	}
	chunks := st.Chunks
	if st.Runs != runs || chunks < 1 || st.ChunksCompleted != chunks || st.ChunksInFlight != 0 {
		t.Errorf("chunk accounting wrong: %+v", st)
	}
	if got := reg.CounterL(obs.MetricDistWorkerChunks, l).Value(); got != int64(chunks) {
		t.Errorf("chunks{worker=%s} = %d, coordinator status says %d", addr, got, chunks)
	}
	if len(st.Workers) != 1 {
		t.Fatalf("%d worker rows, want 1: %+v", len(st.Workers), st.Workers)
	}
	row := st.Workers[0]
	if row.Addr != addr || row.RunsServed != runs || row.ChunksDone != chunks || row.Dead {
		t.Errorf("worker row wrong (want %d chunks): %+v", chunks, row)
	}

	ws := w.Status()
	if ws.RunsServed != runs || ws.InFlight != 0 || ws.RunSeconds <= 0 || ws.ChunksServed != int64(chunks) {
		t.Errorf("worker self-status wrong (want %d chunks): %+v", chunks, ws)
	}

	// Status marshals for /statusz.
	if _, err := json.Marshal(st); err != nil {
		t.Errorf("status not JSON-marshalable: %v", err)
	}
}

// TestFleetViewIsPerCoordinator: two coordinators share one worker, and
// each one's worker row and labeled series count only the runs it
// dispatched and committed; the worker's lifetime total is on its own
// Status.
func TestFleetViewIsPerCoordinator(t *testing.T) {
	w := startWorker(t)
	addr := w.Addr()
	l := obs.Labels{"worker": addr}

	const runs = 12
	for i := 0; i < 2; i++ {
		reg := obs.NewRegistry()
		coord := fastCoord(addr)
		coord.Obs = &obs.Observer{Metrics: reg}
		if _, err := coord.RunCtx(context.Background(), testJob(), testSeed, runs, population.RunHooks{}); err != nil {
			t.Fatal(err)
		}
		st := coord.Status()
		if len(st.Workers) != 1 || st.Workers[0].RunsServed != runs || st.Workers[0].InFlight != 0 {
			t.Errorf("coordinator %d: worker rows %+v, want one row serving %d runs", i, st.Workers, runs)
		}
		if got := reg.GaugeL(obs.MetricDistWorkerRunsServed, l).Value(); got != runs {
			t.Errorf("coordinator %d: runs_served{worker=%s} = %v, want %d", i, addr, got, runs)
		}
	}
	if got := w.Status().RunsServed; got != 2*runs {
		t.Errorf("worker self-status runs_served = %d, want %d", got, 2*runs)
	}
}
