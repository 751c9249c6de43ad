package dist

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestNoTakeAfterJobDone is the deterministic regression test for
// post-completion dispatch: a chunk held by a slow worker gets requeued
// by its chunk timeout, a fast worker completes the whole job from the
// duplicate, and then the slow worker's own failure path puts its stale
// segment back. Before the fix the queue happily handed that dead
// segment to the next idle worker, which dispatched a brand-new chunk
// for a job whose outcome was already decided. Now completion closes
// the queue: the late put is dropped and the take returns nil.
func TestNoTakeAfterJobDone(t *testing.T) {
	q := newWorkQueue(4)
	st := newRunState(4, q)

	// Slow worker takes the whole range and stalls mid-dispatch.
	stale := q.take(4)
	if stale == nil || stale.count != 4 {
		t.Fatalf("initial take = %+v, want the full [0,4) range", stale)
	}
	// Its chunk timeout fires: the coordinator requeues the range…
	q.put(&chunk{start: 0, count: 4, attempts: 1})
	// …and a healthy worker re-dispatches and completes the job.
	dup := q.take(4)
	if dup == nil {
		t.Fatal("re-dispatch take returned nil with a requeued segment pending")
	}
	runs := make([]RunResult, 4)
	for i := range runs {
		runs[i] = RunResult{Offset: i}
	}
	if fresh := st.commit(runs); len(fresh) != 4 {
		t.Fatalf("commit installed %d results, want 4", len(fresh))
	}
	select {
	case <-st.done:
	default:
		t.Fatal("job did not complete after all offsets committed")
	}

	// The stalled worker finally errors out and requeues its segment —
	// after the job already finished.
	q.put(stale)
	if q.pending() != 0 {
		t.Errorf("queue holds %d pending runs after job completion, want 0 (stale put must be dropped)", q.pending())
	}
	if ch := q.take(4); ch != nil {
		t.Errorf("take after job completion returned %+v — an idle worker would dispatch it as a new chunk", ch)
	}
}

// TestQueueClosedOnFailure: a terminal job failure must also cancel
// un-dispatched segments, not just successful completion.
func TestQueueClosedOnFailure(t *testing.T) {
	q := newWorkQueue(8)
	st := newRunState(8, q)
	st.fail(errJobDone)
	if ch := q.take(8); ch != nil {
		t.Errorf("take after job failure returned %+v, want nil", ch)
	}
}

// TestNoChunkDispatchAfterConvergence asserts, via the chunk ledger,
// the satellite guarantee end to end: once OnRound reports
// width ≤ target, the adaptive analysis is done and no further chunk —
// remote dispatch or local — may launch. Stale work is possible here
// because every refinement round ends by completing a dist job while
// worker loops may still hold carved segments.
func TestNoChunkDispatchAfterConvergence(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	c := fastCoord(w1.Addr(), w2.Addr())
	c.ChunkTarget = time.Nanosecond // one-run chunks, several per round: convergence races carving
	c.Obs = o

	dispatched := func() int64 {
		return o.Metrics.Counter(obs.MetricDistChunksDispatched).Value() +
			o.Metrics.Counter(obs.MetricDistLocalChunks).Value()
	}

	var atConvergence atomic.Int64
	atConvergence.Store(-1)
	const target = 1.0 // generous: the very first round converges
	col := c.CollectorCtx(context.Background(), testJob(), "runtime_s")
	_, err := core.AnalyzeToWidthWith(col, core.Params{F: 0.5, C: 0.9}, core.WidthOptions{
		TargetWidth: target,
		BaseSeed:    testSeed,
		Hooks: core.Hooks{OnRound: func(samples int, width float64) {
			if width <= target && atConvergence.Load() < 0 {
				atConvergence.Store(dispatched())
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	at := atConvergence.Load()
	if at < 0 {
		t.Fatal("analysis returned without reporting a converged round")
	}
	if at < 2 {
		t.Fatalf("%d chunks launched before convergence, want several racing the carve", at)
	}
	// Give any straggling worker goroutine time to (wrongly) dispatch.
	time.Sleep(300 * time.Millisecond)
	if after := dispatched(); after != at {
		t.Errorf("%d chunks launched after OnRound reported width <= target (ledger %d -> %d)",
			after-at, at, after)
	}
}
