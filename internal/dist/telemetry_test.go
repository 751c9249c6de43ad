package dist

import (
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/population"
)

// TestWorkerTelemetryFoldsIntoLabeledGauges runs a real two-connection
// campaign and asserts the coordinator turned the wire snapshots into
// per-worker labeled series and a populated /statusz table.
func TestWorkerTelemetryFoldsIntoLabeledGauges(t *testing.T) {
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

// TestTelemetryAttachedForV2Peer: the worker telemetry protocol v2
// introduced rides on every chunk_done once the worker has served runs.
func TestTelemetryAttachedForV2Peer(t *testing.T) {
	w := startWorker(t)

	raw, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	nc := newConn(raw, 2*time.Second)
	defer nc.close()
	if err := nc.handshake(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	cfg := testJob().Config
	err = nc.send(frame{Type: frameRunChunk, ID: 7, Benchmark: testBench,
		Config: &cfg, Scale: testScale, BaseSeed: testSeed, Start: 0, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	for {
		f, err := nc.recv(time.Now().Add(10 * time.Second))
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case frameChunkDone:
			if f.Telemetry == nil {
				t.Fatal("chunk_done carried no telemetry")
			}
			if f.Telemetry.RunsServed != 3 || f.Telemetry.RunSeconds <= 0 {
				t.Fatalf("telemetry wrong: %+v", f.Telemetry)
			}
			return
		case frameError:
			t.Fatalf("chunk failed: %s", f.Error)
		}
	}
}
