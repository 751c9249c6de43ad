package campaignd

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/sim"
)

// lockedBuffer lets two workers share one trace sink; the tracer holds
// its own encoder mutex, but reads must not race late span emissions.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// startFleetWorker boots an in-process spaworker wired to the shared
// trace sink.
func startFleetWorker(t *testing.T, o *obs.Observer) *dist.Worker {
	t.Helper()
	w := &dist.Worker{Parallelism: 1, Obs: o}
	if err := w.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = w.Serve() }()
	t.Cleanup(func() { w.Close() })
	return w
}

// The fairness acceptance test: two tenants submit equal campaigns to a
// saturated two-worker fleet (one simulation slot per worker) and the
// fleet must execute chunks from both tenants interleaved — neither
// tenant's campaign runs to completion before the other starts.
func TestTwoTenantChunkInterleaving(t *testing.T) {
	trace := &lockedBuffer{}
	wobs := &obs.Observer{Tracer: obs.NewTracer(trace)}
	w1 := startFleetWorker(t, wobs)
	w2 := startFleetWorker(t, wobs)

	s := startService(t, Config{
		Workers:    []string{w1.Addr(), w2.Addr()},
		MaxRunning: 2,
	})
	// One-run chunks give the scheduler and workers many dispatch points
	// to interleave; both campaigns must be in flight before chunks flow.
	s.Coordinator().ChunkTarget = time.Nanosecond

	mk := func(name, bench string) *manifest.Manifest {
		return &manifest.Manifest{
			Name: name, Seed: 11, Scale: 0.05, Runs: 120,
			Entries:  []manifest.Entry{{Benchmark: bench}},
			Analyses: []manifest.Analysis{{Metric: sim.MetricRuntime, F: 0.5, C: 0.9}},
		}
	}
	idA, err := s.Submit(Spec{Tenant: "alpha", Manifest: mk("fair-a", "swaptions")})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := s.Submit(Spec{Tenant: "beta", Manifest: mk("fair-b", "canneal")})
	if err != nil {
		t.Fatal(err)
	}
	if rec := waitTerminal(t, s, idA, 120*time.Second); rec.State != StateDone {
		t.Fatalf("tenant alpha campaign = %v (%s)", rec.State, rec.Error)
	}
	if rec := waitTerminal(t, s, idB, 120*time.Second); rec.State != StateDone {
		t.Fatalf("tenant beta campaign = %v (%s)", rec.State, rec.Error)
	}

	// Reconstruct the fleet's dispatch order from worker chunk spans.
	type span struct {
		Kind  string    `json:"kind"`
		Name  string    `json:"name"`
		Start time.Time `json:"start"`
		Attrs struct {
			Benchmark string `json:"benchmark"`
		} `json:"attrs"`
	}
	var starts []span
	for _, line := range bytes.Split(trace.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var sp span
		if err := json.Unmarshal(line, &sp); err != nil {
			t.Fatalf("bad trace line %s: %v", line, err)
		}
		if sp.Kind == "span" && sp.Name == "dist.worker_chunk" {
			starts = append(starts, sp)
		}
	}
	var firstA, lastA, firstB, lastB time.Time
	nA, nB := 0, 0
	for _, sp := range starts {
		switch sp.Attrs.Benchmark {
		case "swaptions":
			if nA == 0 || sp.Start.Before(firstA) {
				firstA = sp.Start
			}
			if sp.Start.After(lastA) {
				lastA = sp.Start
			}
			nA++
		case "canneal":
			if nB == 0 || sp.Start.Before(firstB) {
				firstB = sp.Start
			}
			if sp.Start.After(lastB) {
				lastB = sp.Start
			}
			nB++
		}
	}
	// 120 runs in one-run chunks = 120 chunks per tenant (re-dispatches
	// can add more, never fewer).
	if nA < 120 || nB < 120 {
		t.Fatalf("fleet served %d swaptions + %d canneal chunks, want >= 120 each", nA, nB)
	}
	// Interleaved dispatch: each tenant's first chunk starts before the
	// other tenant's last chunk — neither campaign was serialized behind
	// the other on the saturated fleet.
	if !firstA.Before(lastB) || !firstB.Before(lastA) {
		t.Fatalf("chunk dispatch not interleaved: swaptions [%s, %s], canneal [%s, %s]",
			firstA.Format(time.RFC3339Nano), lastA.Format(time.RFC3339Nano),
			firstB.Format(time.RFC3339Nano), lastB.Format(time.RFC3339Nano))
	}
}
