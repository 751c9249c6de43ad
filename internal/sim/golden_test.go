package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/workload"
)

// -update regenerates testdata/golden.json from the current simulator.
// The committed file was produced by the pre-optimization implementation,
// so a passing run proves the optimized fast paths are byte-identical.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json")

// goldenRecord pins one execution: the cycle count and every scalar metric,
// formatted with strconv.FormatFloat(-1) so the comparison is exact (two
// float64 values render identically iff their bits agree). Config names the
// system configuration; it is empty for DefaultConfig.
type goldenRecord struct {
	Benchmark string            `json:"benchmark"`
	Config    string            `json:"config,omitempty"`
	Scale     float64           `json:"scale"`
	Seed      uint64            `json:"seed"`
	Cycles    uint64            `json:"cycles"`
	Metrics   map[string]string `json:"metrics"`
}

var goldenScales = []float64{0.05, 0.2}

const goldenSeed = 1

// goldenConfigs are the non-default configurations the workloads, the
// variants and the ablations run, each an edit of DefaultConfig. Each is
// pinned on goldenConfigBenches at goldenConfigScale, so a fast path that
// only a variant reaches (a smaller L2, another replacement policy or
// protocol, the gshare predictor, the prefetcher, OS noise) is fenced as
// tightly as the default system.
var goldenConfigs = []struct {
	label string
	edit  func(*Config)
}{
	// The names are known; a misspelt one would fail the run's Validate.
	{"l2half", func(c *Config) { *c, _ = VariantConfig("l2half") }},
	{"l2double", func(c *Config) { *c, _ = VariantConfig("l2double") }},
	{"hardware", func(c *Config) { *c, _ = VariantConfig("hardware") }},
	{"fifo", func(c *Config) { c.ReplacementPolicy = "fifo" }},
	{"random", func(c *Config) { c.ReplacementPolicy = "random" }},
	{"msi", func(c *Config) { c.CoherenceProtocol = "msi" }},
	{"gshare", func(c *Config) { c.BPKind = "gshare" }},
	{"prefetch", func(c *Config) { c.PrefetchNextLine = true }},
}

var goldenConfigBenches = []string{"canneal", "dedup", "ferret", "swaptions"}

const goldenConfigScale = 0.05

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "golden.json")
}

func formatMetrics(res *Result) map[string]string {
	out := make(map[string]string, len(res.Metrics))
	for name, v := range res.Metrics {
		out[name] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return out
}

func runGolden(t *testing.T) []goldenRecord {
	t.Helper()
	var recs []goldenRecord
	add := func(bench, label string, cfg Config, scale float64) {
		res, err := Run(bench, cfg, scale, goldenSeed)
		if err != nil {
			t.Fatalf("Run(%s, %q, %g): %v", bench, label, scale, err)
		}
		recs = append(recs, goldenRecord{
			Benchmark: bench,
			Config:    label,
			Scale:     scale,
			Seed:      goldenSeed,
			Cycles:    res.Cycles,
			Metrics:   formatMetrics(res),
		})
	}
	for _, bench := range workload.Names() {
		for _, scale := range goldenScales {
			add(bench, "", DefaultConfig(), scale)
		}
	}
	for _, c := range goldenConfigs {
		cfg := DefaultConfig()
		c.edit(&cfg)
		for _, bench := range goldenConfigBenches {
			add(bench, c.label, cfg, goldenConfigScale)
		}
	}
	return recs
}

// TestGoldenProfilesByteIdentical pins Result.Cycles and every metric for all nine
// benchmark profiles at two scales, and for goldenConfigBenches under every
// goldenConfigs configuration, against testdata/golden.json. It is the
// contract every performance optimization must preserve: the pooled runner,
// the per-core activation slots, the packed cache tags, the TLB and
// directory tables may change how a run executes, never what it computes.
func TestGoldenProfilesByteIdentical(t *testing.T) {
	got := runGolden(t)
	path := goldenPath(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d records, current run produced %d (regenerate with -update)", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		label := fmt.Sprintf("%s config=%q scale=%g seed=%d", w.Benchmark, w.Config, w.Scale, w.Seed)
		if g.Benchmark != w.Benchmark || g.Config != w.Config || g.Scale != w.Scale || g.Seed != w.Seed {
			t.Fatalf("record %d is %s/%q/%g/%d, want %s", i, g.Benchmark, g.Config, g.Scale, g.Seed, label)
		}
		if g.Cycles != w.Cycles {
			t.Errorf("%s: cycles = %d, want %d", label, g.Cycles, w.Cycles)
		}
		if len(g.Metrics) != len(w.Metrics) {
			t.Errorf("%s: %d metrics, want %d", label, len(g.Metrics), len(w.Metrics))
		}
		for name, wv := range w.Metrics {
			if gv, ok := g.Metrics[name]; !ok {
				t.Errorf("%s: metric %s missing", label, name)
			} else if gv != wv {
				t.Errorf("%s: metric %s = %s, want %s", label, name, gv, wv)
			}
		}
	}
}

// TestGoldenRepeatedRuns executes the same (benchmark, config, scale, seed)
// tuple repeatedly from one goroutine and asserts identical results. With
// the pooled runner this exercises the arena-reuse path directly: the
// second and third iterations run on recycled machine state.
func TestGoldenRepeatedRuns(t *testing.T) {
	cfg := DefaultConfig()
	for _, bench := range []string{"ferret", "canneal", "dedup"} {
		first, err := Run(bench, cfg, 0.05, 7)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			res, err := Run(bench, cfg, 0.05, 7)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != first.Cycles {
				t.Fatalf("%s repeat %d: cycles %d != %d", bench, rep, res.Cycles, first.Cycles)
			}
			for name, v := range first.Metrics {
				if res.Metrics[name] != v {
					t.Fatalf("%s repeat %d: metric %s %v != %v", bench, rep, name, res.Metrics[name], v)
				}
			}
			if res.Trace.Len() != first.Trace.Len() {
				t.Fatalf("%s repeat %d: trace length %d != %d", bench, rep, res.Trace.Len(), first.Trace.Len())
			}
		}
	}
}
