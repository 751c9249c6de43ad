package dist

import (
	"context"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faultx"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sim"
)

// chaosSeed returns the soak seed: SPA_CHAOS_SEED in the environment
// (CI runs the soak at two seeds), default 1. Every fault schedule in a
// soak run derives deterministically from this one value.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	s := os.Getenv("SPA_CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("SPA_CHAOS_SEED=%q: %v", s, err)
	}
	return v
}

// chaosProfile tunes a scenario profile for test-speed soaking.
func chaosProfile(scenarios ...faultx.Scenario) faultx.Profile {
	p := faultx.ProfileFor(scenarios...)
	p.Rate = 0.25
	p.MaxDelay = 5 * time.Millisecond
	p.StallFor = 150 * time.Millisecond
	return p
}

// startChaosWorker boots a real worker behind a fault-injecting
// listener. Batching is tuned aggressively small so the soak exercises
// many result_batch flush boundaries per chunk, not one big batch.
func startChaosWorker(t *testing.T, inj *faultx.Injector) *Worker {
	t.Helper()
	w := &Worker{Parallelism: 2, pol: policyWith(func(p *policy) {
		p.heartbeat = 50 * time.Millisecond
		p.workerWriteTimeout = 500 * time.Millisecond
		p.idleTimeout = 30 * time.Second
		p.batchRuns = 4
		p.batchFlush = 5 * time.Millisecond
	})}
	return startChaos(t, w, inj)
}

func startChaos(t *testing.T, w *Worker, inj *faultx.Injector) *Worker {
	t.Helper()
	w.listen = inj.Listen
	if err := w.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Serve() }()
	t.Cleanup(func() {
		w.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("chaos worker serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("chaos worker did not stop")
		}
	})
	return w
}

// chaosCoord builds a coordinator with failure handling tuned for
// soak-test speed and a fault budget large enough that chaos rarely
// abandons both workers (and byte-identity holds even when it does —
// the coordinator degrades to local execution). The short ChunkTarget
// carves many variably sized chunks — re-dispatch of partially-streamed
// batched chunks is exactly where scheduling bugs would corrupt
// assembly.
func chaosCoord(dial *faultx.Injector, obsv *obs.Observer, addrs ...string) *Coordinator {
	return &Coordinator{
		Workers:     addrs,
		ChunkTarget: 100 * time.Millisecond,
		Dial:        dial.Dial,
		Obs:         obsv,
		pol: policyWith(func(p *policy) {
			p.chunkTimeout = 20 * time.Second
			p.readTimeout = 500 * time.Millisecond
			p.writeTimeout = 500 * time.Millisecond
			p.dialTimeout = 2 * time.Second
			p.maxFailures = 5
			p.backoffBase = time.Millisecond
			p.backoffMax = 20 * time.Millisecond
		}),
	}
}

// TestChaosSoakByteIdentity is the adversarial proof of the dist
// layer's core claim: for EVERY fault scenario — injected on both the
// coordinator's dial side and each worker's listener side — a 2-worker
// campaign returns samples byte-identical to a clean local run. Faults
// perturb timing, routing, and retries; they must never perturb sample
// values or ordering.
func TestChaosSoakByteIdentity(t *testing.T) {
	const runs = 12
	want := localPop(t, runs)
	seed := chaosSeed(t)
	reg := obs.NewRegistry()
	chaosObs := &obs.Observer{Metrics: reg}

	scenarios := append(faultx.Scenarios(), faultx.Scenario(255)) // 255 = combined
	for _, sc := range scenarios {
		name := sc.String()
		prof := chaosProfile(sc)
		if sc == 255 {
			name = "combined"
			prof = chaosProfile(faultx.Scenarios()...)
		}
		t.Run(name, func(t *testing.T) {
			// Distinct, deterministic sub-seeds per scenario and side.
			base := seed*1000 + uint64(sc)*10
			addrs := make([]string, 2)
			for i := range addrs {
				w := startChaosWorker(t, faultx.New(base+uint64(i), prof, chaosObs))
				addrs[i] = w.Addr()
			}
			c := chaosCoord(faultx.New(base+7, prof, chaosObs), &obs.Observer{Metrics: reg}, addrs...)
			got, err := c.GeneratePopulationCtx(context.Background(), testBench, sim.DefaultConfig(), testScale, runs, testSeed, population.RunHooks{})
			if err != nil {
				t.Fatalf("chaos campaign (%s, seed %d) failed outright: %v", name, seed, err)
			}
			checkPopEqual(t, got, want)
		})
	}
	// Across the full soak the injectors must actually have fired:
	// a soak that never faulted proves nothing.
	if v := reg.Counter(obs.MetricChaosFaults).Value() + reg.Counter(obs.MetricChaosRefusals).Value(); v == 0 {
		t.Error("chaos soak completed without a single injected fault")
	}
	t.Logf("chaos soak seed %d: %d faults, %d refusals, %d redispatches, %d dead workers, %d local-fallback chunks",
		seed,
		reg.Counter(obs.MetricChaosFaults).Value(),
		reg.Counter(obs.MetricChaosRefusals).Value(),
		reg.Counter(obs.MetricDistRedispatches).Value(),
		reg.Counter(obs.MetricDistWorkersDead).Value(),
		reg.Counter(obs.MetricDistLocalChunks).Value())
}

// TestChaosHooksNeverDuplicate runs the combined profile and checks the
// exactly-once hook contract survives chaos: re-dispatched and
// half-streamed chunks must not fire hooks twice or for phantom runs.
func TestChaosHooksNeverDuplicate(t *testing.T) {
	const runs = 9
	seed := chaosSeed(t)
	prof := chaosProfile(faultx.Scenarios()...)
	w1 := startChaosWorker(t, faultx.New(seed*7+1, prof, nil))
	w2 := startChaosWorker(t, faultx.New(seed*7+2, prof, nil))

	var mu sync.Mutex
	seen := map[int]int{}
	h := population.RunHooks{
		OnRunDone: func(i int, s uint64, res *sim.Result, err error, elapsed time.Duration) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		},
	}
	c := chaosCoord(faultx.New(seed*7+3, prof, nil), nil, w1.Addr(), w2.Addr())
	if _, err := c.RunCtx(context.Background(), testJob(), testSeed, runs, h); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < runs; i++ {
		if seen[i] != 1 {
			t.Errorf("run %d hook fired %d times under chaos, want exactly 1", i, seen[i])
		}
	}
}
