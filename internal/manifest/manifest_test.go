package manifest

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/population"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestTemplateIsValid(t *testing.T) {
	if err := Template().Validate(); err != nil {
		t.Fatalf("template invalid: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Template().Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "example" || len(m.Entries) != 3 || len(m.Analyses) != 3 {
		t.Errorf("round trip lost content: %+v", m)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	js := `{"name":"x","entries":[{"benchmark":"ferret"}],"analyses":[{"metric":"runtime_s","f":0.5,"c":0.9}],"bogus":1}`
	if _, err := Load(strings.NewReader(js)); err == nil {
		t.Error("unknown field should be rejected")
	}
	if _, err := Load(strings.NewReader("{nope")); err == nil {
		t.Error("garbage should be rejected")
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	base := func() *Manifest { return Template() }
	cases := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"empty name", func(m *Manifest) { m.Name = "" }},
		{"no entries", func(m *Manifest) { m.Entries = nil }},
		{"no analyses", func(m *Manifest) { m.Analyses = nil }},
		{"negative scale", func(m *Manifest) { m.Scale = -1 }},
		{"scale over the bound", func(m *Manifest) { m.Scale = workload.MaxScale + 0.5 }},
		{"NaN scale", func(m *Manifest) { m.Scale = math.NaN() }},
		{"infinite scale", func(m *Manifest) { m.Scale = math.Inf(1) }},
		// NaN would reach popcache's key hash, which JSON cannot encode.
		{"NaN pilot_scale", func(m *Manifest) {
			m.Analyses[0].TargetWidth, m.Analyses[0].Sampling, m.Analyses[0].PilotScale = 0.01, "stratified", math.NaN()
		}},
		{"NaN fidelity", func(m *Manifest) {
			m.Analyses[0].TargetWidth, m.Analyses[0].Sampling, m.Analyses[0].Fidelity = 0.01, "stratified", math.NaN()
		}},
		{"negative runs", func(m *Manifest) { m.Runs = -1 }},
		{"unknown benchmark", func(m *Manifest) { m.Entries[0].Benchmark = "nope" }},
		{"unknown variant", func(m *Manifest) { m.Entries[0].Variant = "warp" }},
		{"negative entry runs", func(m *Manifest) { m.Entries[0].Runs = -2 }},
		{"duplicate entry", func(m *Manifest) { m.Entries = append(m.Entries, m.Entries[0]) }},
		{"bad direction", func(m *Manifest) { m.Analyses[0].Direction = "sideways" }},
		{"bad F", func(m *Manifest) { m.Analyses[0].F = 2 }},
		{"empty metric", func(m *Manifest) { m.Analyses[0].Metric = "" }},
		// "" and "plain" are one design, so both refuse design knobs.
		{"design knobs with sampling unset", func(m *Manifest) {
			m.Analyses[0].TargetWidth, m.Analyses[0].PilotScale = 0.01, 0.1
		}},
		{"design knobs with plain sampling", func(m *Manifest) {
			m.Analyses[0].TargetWidth, m.Analyses[0].Sampling, m.Analyses[0].SamplingStrata = 0.01, "plain", 4
		}},
		// Each count a process sizes arrays by is bounded.
		{"runs over the bound", func(m *Manifest) { m.Runs = population.MaxRuns + 1 }},
		{"entry runs over the bound", func(m *Manifest) { m.Entries[0].Runs = population.MaxRuns + 1 }},
		{"max_samples over the bound", func(m *Manifest) {
			m.Analyses[0].TargetWidth, m.Analyses[0].MaxSamples = 0.01, population.MaxRuns+1
		}},
		{"grow_batch over the bound", func(m *Manifest) {
			m.Analyses[0].TargetWidth, m.Analyses[0].GrowBatch = 0.01, population.MaxRuns+1
		}},
		{"pilot_runs over the bound", func(m *Manifest) {
			m.Analyses[0].TargetWidth, m.Analyses[0].Sampling, m.Analyses[0].PilotRuns = 0.01, "stratified", population.MaxRuns+1
		}},
	}
	for _, c := range cases {
		m := base()
		c.mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: should be invalid", c.name)
		}
	}
}

// TestValidateCountBound: a count at exactly population.MaxRuns is still valid.
func TestValidateCountBound(t *testing.T) {
	m := Template()
	m.Runs, m.Entries[0].Runs = population.MaxRuns, population.MaxRuns
	a := &m.Analyses[0]
	a.TargetWidth, a.MaxSamples, a.GrowBatch = 0.01, population.MaxRuns, population.MaxRuns
	a.Sampling, a.PilotRuns = "stratified", population.MaxRuns
	if err := m.Validate(); err != nil {
		t.Fatalf("counts at the bound refused: %v", err)
	}
}

// TestValidateManifestName: the name prefixes every file a campaign
// writes into its output directory, so it must be one path element.
// Every name the repository's manifests use passes; a name that could
// leave the directory, or that names no file of its own, fails.
func TestValidateManifestName(t *testing.T) {
	for _, name := range []string{"e2e", "tele", "suite-cold", "fleet-canneal", "sweep-000", "sweep-baseline", "example"} {
		m := Template()
		m.Name = name
		if err := m.Validate(); err != nil {
			t.Errorf("name %q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"", ".", "..", "../escaped", "../c00000001/x", "a/b", "/abs", `a\b`, `..\escaped`, "a\x00b"} {
		m := Template()
		m.Name = name
		if err := m.Validate(); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}

func TestEntryConfigVariants(t *testing.T) {
	for variant, l2 := range map[string]int{
		"":         3 * 1024 * 1024,
		"default":  3 * 1024 * 1024,
		"l2half":   512 * 1024,
		"l2double": 1024 * 1024,
	} {
		cfg, err := Entry{Benchmark: "ferret", Variant: variant}.Config()
		if err != nil {
			t.Fatalf("variant %q: %v", variant, err)
		}
		if cfg.L2Size != l2 {
			t.Errorf("variant %q: L2 %d, want %d", variant, cfg.L2Size, l2)
		}
	}
	hw, err := Entry{Benchmark: "ferret", Variant: "hardware"}.Config()
	if err != nil || hw.ColocationProb == 0 {
		t.Error("hardware variant should enable colocation")
	}
}

func TestAnalysisParams(t *testing.T) {
	p, err := Analysis{Metric: sim.MetricIPC, F: 0.9, C: 0.9, Direction: "atleast"}.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Direction.String() != "at-least" {
		t.Errorf("direction = %v", p.Direction)
	}
	if _, err := (Analysis{F: 0.5, C: 0.9, Direction: "no"}).Params(); err == nil {
		t.Error("bad direction should error")
	}
}
