package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCollectHooksFire(t *testing.T) {
	var started, done atomic.Int64
	var mu sync.Mutex
	seen := map[uint64]float64{}
	h := Hooks{
		OnRunStart: func(seed uint64) { started.Add(1) },
		OnRunDone: func(seed uint64, v float64, err error, elapsed time.Duration) {
			done.Add(1)
			if err != nil {
				t.Errorf("unexpected run error: %v", err)
			}
			if elapsed < 0 {
				t.Errorf("negative elapsed %v", elapsed)
			}
			mu.Lock()
			seen[seed] = v
			mu.Unlock()
		},
	}
	out, err := CollectHooks(metricRun, 100, 20, 4, h)
	if err != nil {
		t.Fatal(err)
	}
	if started.Load() != 20 || done.Load() != 20 {
		t.Errorf("hooks fired %d/%d times, want 20/20", started.Load(), done.Load())
	}
	for i, v := range out {
		if got, ok := seen[100+uint64(i)]; !ok || got != v {
			t.Errorf("seed %d: hook saw %g (present %v), Collect returned %g", 100+i, got, ok, v)
		}
	}
}

func TestCollectJoinsAllErrors(t *testing.T) {
	boom := errors.New("boom")
	run := func(seed uint64) (float64, error) {
		if seed == 3 || seed == 7 {
			return 0, fmt.Errorf("seed-specific: %w", boom)
		}
		return float64(seed), nil
	}
	_, err := CollectHooks(run, 0, 10, 2, Hooks{})
	if !errors.Is(err, boom) {
		t.Fatalf("joined error must preserve Is: %v", err)
	}
	msg := err.Error()
	for _, frag := range []string{"seed 3", "seed 7"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("aggregate error missing %q: %v", frag, msg)
		}
	}
}

func TestAnalyzeToWidthHooks(t *testing.T) {
	var runs atomic.Int64
	var rounds atomic.Int64
	w := WidthOptions{
		TargetWidth: 1e9, // satisfied on the first round
		BaseSeed:    1000,
		Hooks: Hooks{
			OnRunDone: func(seed uint64, v float64, err error, _ time.Duration) {
				if seed < 1000 {
					t.Errorf("hook saw relative seed %d; want campaign-absolute", seed)
				}
				runs.Add(1)
			},
			OnRound: func(samples int, width float64) {
				rounds.Add(1)
				if samples <= 0 || width < 0 {
					t.Errorf("round reported samples=%d width=%g", samples, width)
				}
			},
		},
	}
	a, err := AnalyzeToWidthWith(FuncCollector(metricRun), Params{F: 0.5, C: 0.9}, w)
	if err != nil {
		t.Fatal(err)
	}
	if int(runs.Load()) != len(a.Samples) {
		t.Errorf("hook fired %d times for %d samples", runs.Load(), len(a.Samples))
	}
	if rounds.Load() == 0 {
		t.Error("OnRound never fired")
	}
}

// BenchmarkCollectHooksOverhead measures the hot RunFunc path with hooks
// disabled, the path every uninstrumented campaign takes, and with one
// enabled, which adds a time.Now pair and a callback per run.
func BenchmarkCollectHooksOverhead(b *testing.B) {
	run := func(seed uint64) (float64, error) {
		// A cheap deterministic stand-in for a simulation.
		x := seed
		for i := 0; i < 64; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		return float64(x % 1000), nil
	}
	b.Run("hooks-disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := CollectHooks(run, 1, 64, 8, Hooks{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hooks-enabled", func(b *testing.B) {
		var n atomic.Int64
		h := Hooks{OnRunDone: func(uint64, float64, error, time.Duration) { n.Add(1) }}
		for i := 0; i < b.N; i++ {
			if _, err := CollectHooks(run, 1, 64, 8, h); err != nil {
				b.Fatal(err)
			}
		}
	})
}
