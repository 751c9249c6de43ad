package popcache

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/population"
	"repro/internal/sim"
)

func testKey() Key {
	return Key{
		Benchmark: "swaptions",
		Config:    sim.DefaultConfig(),
		Scale:     0.05,
		BaseSeed:  7,
		Runs:      4,
	}
}

func generate(t testing.TB, k Key) *population.Population {
	t.Helper()
	pop, err := population.Generate(k.Benchmark, k.Config, k.Scale, k.Runs, k.BaseSeed, 2)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// popBytes renders a population in its exact on-disk form, so comparisons
// are byte-for-byte rather than approximate.
func popBytes(t testing.TB, p *population.Population) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHashStableAndSensitive(t *testing.T) {
	k := testKey()
	h := k.Hash()
	if len(h) != 64 {
		t.Fatalf("hash %q is not hex SHA-256", h)
	}
	if k.Hash() != h {
		t.Fatal("hash of identical key differs")
	}
	// Every recipe ingredient must perturb the address; a collision on any
	// one of them would let a hit return the wrong population.
	mutations := map[string]Key{}
	m := k
	m.Benchmark = "ferret"
	mutations["benchmark"] = m
	m = k
	m.Scale = 0.06
	mutations["scale"] = m
	m = k
	m.BaseSeed = 8
	mutations["seed"] = m
	m = k
	m.Runs = 5
	mutations["runs"] = m
	m = k
	m.Config.L2Size *= 2
	mutations["config"] = m
	for name, mk := range mutations {
		if mk.Hash() == h {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	k := testKey()
	if got := c.Get(k); got != nil {
		t.Fatalf("nil cache Get = %v", got)
	}
	if err := c.Put(k, &population.Population{}); err != nil {
		t.Fatal(err)
	}
	pop, hit, err := (&Source{}).Population(context.Background(), k)
	if err != nil || hit || pop == nil {
		t.Fatalf("uncached Source.Population = (%v, %v, %v)", pop, hit, err)
	}
}

func TestMemoryHitByteIdentical(t *testing.T) {
	c := New("", 0)
	k := testKey()
	fresh := generate(t, k)
	if err := c.Put(k, fresh); err != nil {
		t.Fatal(err)
	}
	got := c.Get(k)
	if got == nil {
		t.Fatal("miss after Put")
	}
	if !bytes.Equal(popBytes(t, got), popBytes(t, fresh)) {
		t.Fatal("memory hit differs from the stored population")
	}
	if s := c.Stats(); s.MemHits != 1 || s.Puts != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDiskHitByteIdenticalAcrossProcessesSimulated(t *testing.T) {
	dir := t.TempDir()
	k := testKey()
	fresh := generate(t, k)
	writer := New(dir, 0)
	if err := writer.Put(k, fresh); err != nil {
		t.Fatal(err)
	}
	// A second cache over the same directory models a separate process: no
	// shared memory tier, only the content-addressed files.
	reader := New(dir, 0)
	got := reader.Get(k)
	if got == nil {
		t.Fatal("disk miss after Put")
	}
	if !bytes.Equal(popBytes(t, got), popBytes(t, fresh)) {
		t.Fatal("disk hit is not byte-identical to the stored population")
	}
	if s := reader.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The promoted entry serves from memory on the next lookup.
	if reader.Get(k) == nil {
		t.Fatal("promoted entry missing")
	}
	if s := reader.Stats(); s.MemHits != 1 {
		t.Fatalf("stats after promotion = %+v", s)
	}
}

func TestHitEqualsMissByteForByte(t *testing.T) {
	// The cache's core contract: a run that hits must observe exactly the
	// metric vectors a run that missed (and simulated) would have.
	dir := t.TempDir()
	k := testKey()
	ctx := context.Background()
	missPop, hit, err := (&Source{Cache: New(dir, 0)}).Population(ctx, k)
	if err != nil || hit {
		t.Fatalf("first request = (hit=%v, err=%v)", hit, err)
	}
	c2 := New(dir, 0)
	hitPop, hit, err := (&Source{Cache: c2}).Population(ctx, k)
	if err != nil || !hit {
		t.Fatalf("second request = (hit=%v, err=%v)", hit, err)
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Misses != 0 {
		t.Fatalf("second request simulated instead of hitting disk: %+v", s)
	}
	missBytes, hitBytes := popBytes(t, missPop), popBytes(t, hitPop)
	if !bytes.Equal(missBytes, hitBytes) {
		t.Fatalf("hit differs from miss:\nmiss: %s\nhit:  %s", missBytes, hitBytes)
	}
	// And both equal an entirely fresh generation, down to the last bit of
	// every float64.
	fresh := generate(t, k)
	for name, want := range fresh.Metrics {
		got := hitPop.Metrics[name]
		if len(got) != len(want) {
			t.Fatalf("metric %s: %d values, want %d", name, len(got), len(want))
		}
		for i := range want {
			g := strconv.FormatFloat(got[i], 'g', -1, 64)
			w := strconv.FormatFloat(want[i], 'g', -1, 64)
			if g != w {
				t.Errorf("metric %s run %d: cache %s, fresh %s", name, i, g, w)
			}
		}
	}
}

func TestCorruptAndMismatchedEntriesMiss(t *testing.T) {
	dir := t.TempDir()
	k := testKey()
	c := New(dir, 0)
	if err := c.Put(k, generate(t, k)); err != nil {
		t.Fatal(err)
	}
	path := c.path(k.Hash())
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := New(dir, 0)
	if fresh.Get(k) != nil {
		t.Fatal("corrupt entry served as a hit")
	}
	// An entry whose embedded key disagrees with its filename (a renamed or
	// hand-edited file) must also miss.
	other := k
	other.BaseSeed++
	c2 := New(t.TempDir(), 0)
	if err := c2.Put(other, generate(t, other)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c2.path(other.Hash()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if fresh.Get(k) != nil {
		t.Fatal("entry with mismatched key served as a hit")
	}

	// Entries whose embedded key is right but whose population is not the
	// key's: a metric vector shorter than the run count, and another
	// recipe's population (benchmark, base seed and run count all differ).
	short := generate(t, k)
	short.Metrics[sim.MetricRuntime] = short.Metrics[sim.MetricRuntime][:3]
	foreignKey := Key{Benchmark: "ferret", Config: k.Config, Scale: k.Scale, BaseSeed: 99, Runs: 7}
	for name, pop := range map[string]*population.Population{
		"short runtime vector": short,
		"foreign population":   generate(t, foreignKey),
	} {
		writeEntry(t, path, k, pop)
		if got := New(dir, 0).Get(k); got != nil {
			t.Errorf("%s served as a hit", name)
		}
	}
}

// TestKilledWriteReadsAsMiss models a write killed midway. For every
// prefix of a stored entry's file, a fresh cache serves nil or the stored
// population, and nil whenever the prefix cuts the JSON. A leftover
// pop-*.tmp beside a missing entry, what a write killed before its rename
// leaves, is never served and does not block a later Put.
func TestKilledWriteReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	k := testKey()
	stored := generate(t, k)
	if err := New(dir, 0).Put(k, stored); err != nil {
		t.Fatal(err)
	}
	want := popBytes(t, stored)
	path := New(dir, 0).path(k.Hash())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= len(data); n++ {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got := New(dir, 0).Get(k)
		switch {
		case got == nil:
		case !json.Valid(data[:n]):
			t.Fatalf("a %d-byte prefix of the %d-byte entry cuts the JSON but was served", n, len(data))
		case !bytes.Equal(popBytes(t, got), want):
			t.Fatalf("a %d-byte prefix served another population", n)
		}
	}

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "pop-1234567.tmp"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if New(dir, 0).Get(k) != nil {
		t.Fatal("a leftover temp file was served")
	}
	if err := New(dir, 0).Put(k, stored); err != nil {
		t.Fatalf("Put beside a leftover temp file: %v", err)
	}
	if got := New(dir, 0).Get(k); got == nil || !bytes.Equal(popBytes(t, got), want) {
		t.Fatal("the entry Put beside a leftover temp file is not served")
	}
}

// writeEntry writes an on-disk entry for key k holding pop, bypassing Put.
func writeEntry(t testing.TB, path string, k Key, pop *population.Population) {
	t.Helper()
	data, err := json.Marshal(diskEntry{Key: k, Population: pop})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("", 2)
	base := testKey()
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = base
		keys[i].BaseSeed = uint64(100 + i)
		if err := c.Put(keys[i], &population.Population{Runs: i, Metrics: map[string][]float64{}}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Get(keys[0]) != nil {
		t.Fatal("oldest entry survived past capacity")
	}
	if c.Get(keys[1]) == nil || c.Get(keys[2]) == nil {
		t.Fatal("recent entries evicted")
	}
	// Touching keys[1] makes keys[2] the LRU victim of the next insert.
	c.Get(keys[1])
	extra := base
	extra.BaseSeed = 999
	if err := c.Put(extra, &population.Population{Metrics: map[string][]float64{}}); err != nil {
		t.Fatal(err)
	}
	if c.Get(keys[2]) != nil {
		t.Fatal("recently-touched entry evicted instead of LRU")
	}
	if c.Get(keys[1]) == nil || c.Get(extra) == nil {
		t.Fatal("LRU kept the wrong entries")
	}
}

func TestDiskWriteFailureDegradesToMemory(t *testing.T) {
	// A file standing where the cache directory should be makes MkdirAll
	// fail; Put must report it yet still serve the population from memory.
	dir := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(dir, 0)
	k := testKey()
	err := c.Put(k, generate(t, k))
	if err == nil {
		t.Fatal("Put through a blocked directory succeeded")
	}
	if !strings.Contains(err.Error(), "popcache") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if c.Get(k) == nil {
		t.Fatal("memory tier lost the population after a disk failure")
	}
}
