// Package popcache is a content-addressed cache of simulation populations.
//
// A population is fully determined by its recipe — (benchmark, simulator
// configuration, workload scale, base seed, run count) — because every
// execution is seed-deterministic. The cache therefore keys populations by
// a stable hash of that recipe: any process that asks for the same recipe
// gets byte-identical metric vectors without re-simulating, in the spirit
// of the sampling literature's "never re-execute what you already know".
// Source is the one path from a recipe to a population: this cache, then
// one generation per recipe in flight, then a coordinator or in-process.
//
// Hits are served from an in-memory LRU first and, when a directory is
// configured, from an on-disk JSON store second. Disk writes go through a
// temp-file + rename, so concurrent writers of the same entry are safe and
// readers never observe a torn file.
package popcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/population"
	"repro/internal/sim"
)

// Key is the complete recipe of a population. Two keys hash equal iff every
// field — including every configuration knob — is equal, so a cache hit can
// only ever return the population the same generation call would produce.
//
// The sampling-design fields address populations produced by
// internal/sampling's variance-reduction collectors: a design-selected
// measured population differs from the plain population of the same base
// recipe (different seeds get measured), so the design and every knob
// that influences seed selection must be part of the content address.
// They are all omitempty, so a plain recipe marshals — and hashes —
// byte-identically to before the fields existed and no existing disk
// cache is invalidated (TestKeyHashStability pins this).
type Key struct {
	Benchmark string     `json:"benchmark"`
	Config    sim.Config `json:"config"`
	Scale     float64    `json:"scale"`
	BaseSeed  uint64     `json:"base_seed"`
	Runs      int        `json:"runs"`

	// Design is the sampling design ("" or "plain" = plain population;
	// "stratified", "rss" = design-selected measured population).
	Design string `json:"design,omitempty"`
	// Strata is the stratum count (stratified) or set size (rss).
	Strata int `json:"strata,omitempty"`
	// Allocation is the stratified allocation rule ("proportional" or
	// "neyman").
	Allocation string `json:"allocation,omitempty"`
	// PilotScale is the workload scale of the pilot (proxy) pass.
	PilotScale float64 `json:"pilot_scale,omitempty"`
	// PilotRuns is the pilot block size the design fetches at a time.
	PilotRuns int `json:"pilot_runs,omitempty"`
	// ProxyMetric is the pilot metric the design ranks by.
	ProxyMetric string `json:"proxy_metric,omitempty"`
	// Fidelity is a fixed ranking-fidelity override (0 = estimated from
	// the measured data). It changes only the interval, not the selected
	// seeds, but is part of the recipe so cached design populations stay
	// a pure function of the configuration that produced them.
	Fidelity float64 `json:"fidelity,omitempty"`
}

// keyEnvelope versions the hashed representation so a future change to the
// semantics of an existing field (not just its value) can invalidate old
// entries by bumping the version.
type keyEnvelope struct {
	Version int `json:"v"`
	Key     Key `json:"key"`
}

const keyVersion = 1

// Hash returns the content address of the recipe: a hex SHA-256 of its
// canonical JSON. encoding/json marshals struct fields in declaration
// order and renders float64s in their shortest round-trippable form, so
// the bytes — and the hash — are deterministic across processes.
func (k Key) Hash() string {
	data, err := json.Marshal(keyEnvelope{Version: keyVersion, Key: k})
	if err != nil {
		// Key contains only scalars and strings; Marshal cannot fail.
		panic(fmt.Sprintf("popcache: marshaling key: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// DefaultMemEntries bounds the in-memory LRU when New is given a
// non-positive limit. Populations are a few hundred float64s per metric;
// 64 of them is a handful of megabytes.
const DefaultMemEntries = 64

// Cache is a two-tier population cache: a bounded in-memory LRU over an
// optional on-disk store. The zero value is not usable; construct with New.
// A nil *Cache is valid everywhere and behaves as a cache that never hits,
// so callers can thread an optional cache without nil checks.
//
// Cached populations are shared: callers must treat them as immutable
// (population.Rounded and friends already copy).
type Cache struct {
	dir        string // "" = memory only
	maxEntries int

	mu    sync.Mutex
	mem   map[string]*population.Population
	order []string // LRU order, least recent first
	stats Stats
}

// Stats counts cache outcomes.
type Stats struct {
	MemHits  uint64
	DiskHits uint64
	Misses   uint64
	Puts     uint64
}

// New builds a cache. dir is the on-disk store directory ("" disables the
// disk tier; the directory is created on first write). maxEntries bounds
// the in-memory tier (non-positive selects DefaultMemEntries).
func New(dir string, maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMemEntries
	}
	return &Cache{
		dir:        dir,
		maxEntries: maxEntries,
		mem:        make(map[string]*population.Population),
	}
}

// Dir returns the disk-store directory ("" when memory-only).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Stats returns a copy of the outcome counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// touch moves hash to the most-recent end of the LRU order. Caller holds mu.
func (c *Cache) touch(hash string) {
	for i, h := range c.order {
		if h == hash {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.order = append(c.order, hash)
}

// insert adds a population to the memory tier, evicting the least recently
// used entry beyond capacity. Caller holds mu.
func (c *Cache) insert(hash string, pop *population.Population) {
	if _, ok := c.mem[hash]; !ok && len(c.mem) >= c.maxEntries {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.mem, oldest)
	}
	c.mem[hash] = pop
	c.touch(hash)
}

// Get returns the cached population for the recipe, or nil when absent.
// Memory is consulted first, then disk; a disk hit is promoted to memory.
func (c *Cache) Get(k Key) *population.Population {
	if c == nil {
		return nil
	}
	hash := k.Hash()
	c.mu.Lock()
	if pop, ok := c.mem[hash]; ok {
		c.touch(hash)
		c.stats.MemHits++
		c.mu.Unlock()
		return pop
	}
	c.mu.Unlock()

	if c.dir != "" {
		if pop := c.loadDisk(hash, k); pop != nil {
			c.mu.Lock()
			c.insert(hash, pop)
			c.stats.DiskHits++
			c.mu.Unlock()
			return pop
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil
}

// Put stores a freshly generated population under its recipe in both tiers.
// Disk errors are returned but leave the memory tier populated, so a
// read-only cache directory degrades to memory-only caching.
func (c *Cache) Put(k Key, pop *population.Population) error {
	if c == nil || pop == nil {
		return nil
	}
	hash := k.Hash()
	c.mu.Lock()
	c.insert(hash, pop)
	c.stats.Puts++
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	return c.storeDisk(hash, k, pop)
}

// diskEntry is the on-disk format: the recipe rides along with the
// population so hash collisions (or hand-edited files) are detected by
// comparing the recipe, not trusted from the filename.
type diskEntry struct {
	Key        Key                    `json:"key"`
	Population *population.Population `json:"population"`
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, "pop-"+hash+".json")
}

// loadDisk reads and verifies an on-disk entry against its key and
// recipe; nil on any miss, damage or mismatch.
func (c *Cache) loadDisk(hash string, k Key) *population.Population {
	data, err := os.ReadFile(c.path(hash))
	if err != nil {
		return nil
	}
	var ent diskEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		return nil
	}
	if ent.Key != k || ent.Population == nil || ent.Population.CheckRecipe(k.Benchmark, k.BaseSeed, k.Runs) != nil {
		return nil
	}
	return ent.Population
}

// storeDisk writes an entry via temp-file + rename (the manifest package's
// atomic-write pattern), so concurrent writers and readers are safe.
func (c *Cache) storeDisk(hash string, k Key, pop *population.Population) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("popcache: creating %s: %w", c.dir, err)
	}
	data, err := json.MarshalIndent(diskEntry{Key: k, Population: pop}, "", " ")
	if err != nil {
		return fmt.Errorf("popcache: marshaling entry: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "pop-*.tmp")
	if err != nil {
		return fmt.Errorf("popcache: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("popcache: writing entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("popcache: closing entry: %w", err)
	}
	if err := os.Rename(tmpName, c.path(hash)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("popcache: publishing entry: %w", err)
	}
	return nil
}
