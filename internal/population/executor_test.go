package population

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

const (
	execBench = "swaptions"
	execScale = 0.05
	execSeed  = uint64(100)
)

// TestExecutorStopsAtContextEnd: no run launches once the context has
// ended — neither for a context cancelled before the call nor after a
// cancel fired from the first run's start hook.
func TestExecutorStopsAtContextEnd(t *testing.T) {
	e := NewExecutor(1)
	var started atomic.Int64
	count := RunHooks{OnRunStart: func(int, uint64) { started.Add(1) }}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(pre, execBench, sim.DefaultConfig(), execScale, execSeed, 0, 64, count); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 0 {
		t.Fatalf("pre-cancelled call started %d runs, want 0", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := e.Run(ctx, execBench, sim.DefaultConfig(), execScale, execSeed, 0, 64, RunHooks{
		OnRunStart: func(int, uint64) {
			if started.Add(1) == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 1 {
		t.Errorf("%d runs started after a cancel in the first one, want 1", n)
	}
}

// TestGenerateStopsAfterFailure: a failed run stops launches, and the
// error reports the lowest failing run alone rather than every run.
func TestGenerateStopsAfterFailure(t *testing.T) {
	const par, runs = 4, 64
	bad := sim.DefaultConfig()
	bad.Cores = 0
	var started atomic.Int64
	_, err := GenerateHooked(execBench, bad, execScale, runs, execSeed, par, RunHooks{
		OnRunStart: func(int, uint64) { started.Add(1) },
	})
	if err == nil {
		t.Fatal("bad config generated a population")
	}
	if n := started.Load(); n > par+1 {
		t.Errorf("%d of %d runs started after the first failure, want at most %d", n, runs, par+1)
	}
	if n := strings.Count(err.Error(), "population: run "); n != 1 {
		t.Errorf("error reports %d failing runs, want 1: %v", n, err)
	}
	if !strings.Contains(err.Error(), "run 0 of") {
		t.Errorf("error %q does not name the lowest failing run", err)
	}
}

// TestExecutorSharedBound: concurrent callers of one executor never have
// more runs in flight than it has arenas.
func TestExecutorSharedBound(t *testing.T) {
	const par = 2
	e := NewExecutor(par)
	var inflight, peak atomic.Int64
	h := RunHooks{
		OnRunStart: func(int, uint64) {
			n := inflight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
		},
		OnRunDone: func(int, uint64, *sim.Result, error, time.Duration) { inflight.Add(-1) },
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, err := e.Run(context.Background(), execBench, sim.DefaultConfig(), execScale, execSeed+uint64(100*c), 0, 8, h); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	if p := peak.Load(); p > par {
		t.Errorf("%d runs in flight at once across two callers, want at most %d", p, par)
	}
}

// TestExecutorMatchesSimRun: every result, and every hook's view of it,
// equals sim.Run for the same seed — also when an arena switches
// configuration between calls.
func TestExecutorMatchesSimRun(t *testing.T) {
	e := NewExecutor(2)
	for _, variant := range []string{"default", "l2half", "default"} {
		cfg, err := sim.VariantConfig(variant)
		if err != nil {
			t.Fatal(err)
		}
		const start, count = 5, 6
		var mu sync.Mutex
		hooked := map[int]*sim.Result{}
		got, err := e.Run(context.Background(), execBench, cfg, execScale, execSeed, start, count, RunHooks{
			OnRunDone: func(i int, seed uint64, res *sim.Result, err error, _ time.Duration) {
				if seed != execSeed+uint64(i) {
					t.Errorf("hook for run %d got seed %d", i, seed)
				}
				mu.Lock()
				hooked[i] = res
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != count {
			t.Fatalf("%s: %d results, want %d", variant, len(got), count)
		}
		for k, m := range got {
			want, err := sim.Run(execBench, cfg, execScale, execSeed+uint64(start+k))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m, want.Metrics) {
				t.Errorf("%s: run %d differs from sim.Run", variant, start+k)
			}
			if res := hooked[start+k]; res == nil || res.Cycles != want.Cycles || !reflect.DeepEqual(res.Detail, want.Detail) {
				t.Errorf("%s: hook for run %d saw another result than sim.Run", variant, start+k)
			}
		}
	}
}
