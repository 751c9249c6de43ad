package popcache

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/population"
	"repro/internal/sim"
)

// FuzzDiskEntry writes arbitrary bytes as the on-disk entry of a fixed
// recipe. Get must return promptly without panicking, and anything it
// serves must be a population of exactly that recipe.
func FuzzDiskEntry(f *testing.F) {
	k := testKey()
	entry := func(key Key, pop *population.Population) []byte {
		data, err := json.Marshal(diskEntry{Key: key, Population: pop})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := entry(k, generate(f, k))
	ragged := generate(f, k)
	ragged.Metrics[sim.MetricIPC] = ragged.Metrics[sim.MetricIPC][:1]
	foreign := k
	foreign.BaseSeed = 99
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(entry(k, ragged))
	f.Add(entry(foreign, generate(f, foreign)))
	f.Add(entry(k, nil))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(dir, 0)
		if err := os.WriteFile(c.path(k.Hash()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got := make(chan *population.Population, 1)
		go func() { got <- c.Get(k) }()
		select {
		case pop := <-got:
			if pop == nil {
				return
			}
			if err := pop.CheckRecipe(k.Benchmark, k.BaseSeed, k.Runs); err != nil {
				t.Fatalf("served a population of another recipe: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Get did not return")
		}
	})
}
