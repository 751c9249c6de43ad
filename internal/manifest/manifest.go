// Package manifest provides declarative experiment campaigns: a JSON
// manifest names the benchmark/variant populations to simulate and the SPA
// analyses to run on them, and the runner executes it with resume support
// (populations already on disk are loaded, not re-simulated). The manifest
// is a report's only input: the runner has no setting that changes a
// result, so the report bytes are the same fresh, resumed, distributed or
// served by the campaign service. This is the reproducible-workflow layer
// the paper points to in Sec. 7 (gem5art) as the natural companion of SPA.
package manifest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Analysis is one SPA question asked of every population in the campaign.
type Analysis struct {
	// Metric is the simulator metric name (e.g. "runtime_s").
	Metric string `json:"metric"`
	// F is the population proportion; C the confidence.
	F float64 `json:"f"`
	C float64 `json:"c"`
	// Direction is "atmost" (default) or "atleast".
	Direction string `json:"direction,omitempty"`
	// TargetWidth, when positive, switches this analysis to adaptive
	// mode: instead of analyzing the entry's fixed population, the runner
	// re-collects samples (same seed range, so the campaign stays
	// replicable) round by round via core.AnalyzeToWidth until the SPA
	// interval is at most this wide, emitting one convergence-trace round
	// per refinement step.
	TargetWidth float64 `json:"target_width,omitempty"`
	// MaxSamples bounds an adaptive analysis's total executions
	// (0 = core's default budget of 4096).
	MaxSamples int `json:"max_samples,omitempty"`
	// GrowBatch is how many executions each refinement round adds
	// (0 = the (F, C) minimum again).
	GrowBatch int `json:"grow_batch,omitempty"`
	// Sampling selects a variance-reduction collection design for an
	// adaptive analysis: "plain" (the default, also spelled ""),
	// "stratified" or "rss". Designs spend a cheap pilot pass to pick
	// which seeds get full-scale runs, reaching the target width in fewer
	// executions (see internal/sampling).
	Sampling string `json:"sampling,omitempty"`
	// SamplingStrata is the stratum count (stratified) or set size
	// (rss); 0 = sampling.DefaultStrata.
	SamplingStrata int `json:"sampling_strata,omitempty"`
	// SamplingAllocation is the stratified allocation rule:
	// "proportional" (default) or "neyman".
	SamplingAllocation string `json:"sampling_allocation,omitempty"`
	// PilotScale is the workload scale of the pilot pass (0 = half the
	// campaign scale; smaller pilots are cheaper but rank worse, which
	// lowers the estimated fidelity and with it the design's savings).
	PilotScale float64 `json:"pilot_scale,omitempty"`
	// PilotRuns is the pilot block size fetched per pilot call
	// (0 = the sampling package default).
	PilotRuns int `json:"pilot_runs,omitempty"`
	// Fidelity fixes the estimator's ranking fidelity λ
	// (0 = estimated from the measured data each round).
	Fidelity float64 `json:"fidelity,omitempty"`
}

// Adaptive reports whether the analysis runs the width-refinement loop.
func (a Analysis) Adaptive() bool { return a.TargetWidth > 0 }

// validateSampling checks the variance-reduction knobs. A design only
// makes sense on an adaptive analysis — fixed analyses read an existing
// plain population, which no design produced — and its knobs only under
// a design other than plain, however plain is spelled.
func (a Analysis) validateSampling() error {
	d, err := sampling.ParseDesign(a.Sampling)
	if err != nil {
		return err
	}
	if _, err := sampling.ParseAllocation(a.SamplingAllocation); err != nil {
		return err
	}
	if a.PilotScale < 0 || a.PilotScale > 1 {
		return fmt.Errorf("manifest: pilot_scale %v outside [0, 1]", a.PilotScale)
	}
	if a.SamplingStrata < 0 {
		return errors.New("manifest: negative sampling knob")
	}
	if err := checkCount("pilot_runs", a.PilotRuns); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	hasKnobs := a.SamplingStrata != 0 || a.SamplingAllocation != "" ||
		a.PilotScale != 0 || a.PilotRuns != 0 || a.Fidelity != 0
	if (d != sampling.Plain || hasKnobs) && !a.Adaptive() {
		return errors.New("manifest: sampling design requires an adaptive analysis (set target_width)")
	}
	if d == sampling.Plain && hasKnobs {
		return errors.New("manifest: sampling knobs set with the plain design")
	}
	if d != sampling.Plain {
		opts := sampling.Options{Design: d, Strata: a.SamplingStrata,
			PilotBlock: a.PilotRuns, Fidelity: a.Fidelity}
		opts.Allocation, _ = sampling.ParseAllocation(a.SamplingAllocation)
		if err := opts.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Params converts the analysis to SPA parameters.
func (a Analysis) Params() (core.Params, error) {
	p := core.Params{F: a.F, C: a.C}
	switch a.Direction {
	case "", "atmost":
		p.Direction = core.AtMost
	case "atleast":
		p.Direction = core.AtLeast
	default:
		return core.Params{}, fmt.Errorf("manifest: unknown direction %q", a.Direction)
	}
	return p, nil
}

// Entry is one population to simulate.
type Entry struct {
	Benchmark string `json:"benchmark"`
	// Variant is "default", "hardware", "l2half" or "l2double".
	Variant string `json:"variant,omitempty"`
	// Runs overrides the manifest-level run count when positive.
	Runs int `json:"runs,omitempty"`
}

// Config resolves the entry's simulator configuration.
func (e Entry) Config() (sim.Config, error) {
	return sim.VariantConfig(e.Variant)
}

// Key identifies the entry — "<benchmark>-<variant>" — naming its
// population file and its row in campaign-service progress reports.
func (e Entry) Key() string { return e.key() }

// key identifies the entry's population file.
func (e Entry) key() string {
	v := e.Variant
	if v == "" {
		v = "default"
	}
	return fmt.Sprintf("%s-%s", e.Benchmark, v)
}

// Manifest is a declarative campaign.
type Manifest struct {
	Name string `json:"name"`
	// Seed roots every population campaign (per-entry offsets applied).
	Seed uint64 `json:"seed"`
	// Scale is the workload scale (0 means 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Runs is the default population size (0 means 100).
	Runs     int        `json:"runs,omitempty"`
	Entries  []Entry    `json:"entries"`
	Analyses []Analysis `json:"analyses"`
}

// scale is the workload scale every entry runs at.
func (m *Manifest) scale() float64 {
	if m.Scale == 0 {
		return 1.0
	}
	return m.Scale
}

// EntryRuns is the population size of entry e: its own Runs, else the
// manifest's, else 100.
func (m *Manifest) EntryRuns(e Entry) int {
	if e.Runs > 0 {
		return e.Runs
	}
	if m.Runs > 0 {
		return m.Runs
	}
	return 100
}

// EntrySeed is the base seed of entry idx's population: entries sit a
// million seeds apart from Seed.
func (m *Manifest) EntrySeed(idx int) uint64 {
	return m.Seed + uint64(idx)*1_000_000
}

// ReportPath is the report file a campaign of m writes into dir.
func (m *Manifest) ReportPath(dir string) string {
	return filepath.Join(dir, m.Name+"-report.json")
}

// Load parses a manifest and validates it.
func Load(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest: decoding: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Save writes the manifest as indented JSON.
func (m *Manifest) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// checkCount refuses a count outside [0, population.MaxRuns]. It bounds
// every run count a manifest names: runs, an entry's runs, max_samples,
// grow_batch and pilot_runs. With at most 36 distinct entries the bound
// also keeps a campaign's total runs far inside int.
func checkCount(field string, n int) error {
	if n < 0 || n > population.MaxRuns {
		return fmt.Errorf("%s %d outside [0, %d]", field, n, population.MaxRuns)
	}
	return nil
}

// Validate checks the manifest for structural problems before any
// simulation starts, so a typo fails fast rather than hours in.
func (m *Manifest) Validate() error {
	// The name prefixes every file a campaign writes into its output
	// directory, so it must be one path element.
	if m.Name == "" {
		return errors.New("manifest: empty name")
	}
	if m.Name == "." || m.Name == ".." || strings.ContainsAny(m.Name, "/\\\x00") {
		return fmt.Errorf("manifest: name %q is not a single path element", m.Name)
	}
	if len(m.Entries) == 0 {
		return errors.New("manifest: no entries")
	}
	if len(m.Analyses) == 0 {
		return errors.New("manifest: no analyses")
	}
	if m.Scale < 0 {
		return errors.New("manifest: negative scale")
	}
	if err := checkCount("runs", m.Runs); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	seen := map[string]bool{}
	for i, e := range m.Entries {
		if _, err := workload.ByName(e.Benchmark); err != nil {
			return fmt.Errorf("manifest: entry %d: %w", i, err)
		}
		if _, err := e.Config(); err != nil {
			return fmt.Errorf("manifest: entry %d: %w", i, err)
		}
		if err := checkCount("runs", e.Runs); err != nil {
			return fmt.Errorf("manifest: entry %d: %w", i, err)
		}
		if seen[e.key()] {
			return fmt.Errorf("manifest: duplicate entry %s", e.key())
		}
		seen[e.key()] = true
	}
	for i, a := range m.Analyses {
		p, err := a.Params()
		if err != nil {
			return fmt.Errorf("manifest: analysis %d: %w", i, err)
		}
		if _, err := core.CIMinSamples(p); err != nil {
			return fmt.Errorf("manifest: analysis %d: %w", i, err)
		}
		if a.Metric == "" {
			return fmt.Errorf("manifest: analysis %d: empty metric", i)
		}
		if a.TargetWidth < 0 {
			return fmt.Errorf("manifest: analysis %d: negative target width", i)
		}
		if err := checkCount("max_samples", a.MaxSamples); err != nil {
			return fmt.Errorf("manifest: analysis %d: %w", i, err)
		}
		if err := checkCount("grow_batch", a.GrowBatch); err != nil {
			return fmt.Errorf("manifest: analysis %d: %w", i, err)
		}
		if a.Adaptive() && a.MaxSamples > 0 {
			if minN, err := core.CIMinSamples(p); err == nil && a.MaxSamples < minN {
				return fmt.Errorf("manifest: analysis %d: max_samples %d below the (F,C) minimum %d", i, a.MaxSamples, minN)
			}
		}
		if err := a.validateSampling(); err != nil {
			return fmt.Errorf("manifest: analysis %d: %w", i, err)
		}
	}
	return nil
}

// Template returns a ready-to-edit example manifest.
func Template() *Manifest {
	return &Manifest{
		Name:  "example",
		Seed:  1,
		Scale: 0.5,
		Runs:  100,
		Entries: []Entry{
			{Benchmark: "ferret"},
			{Benchmark: "ferret", Variant: "l2double"},
			{Benchmark: "canneal"},
		},
		Analyses: []Analysis{
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9},
			{Metric: sim.MetricRuntime, F: 0.9, C: 0.9},
			{Metric: sim.MetricL1DMPKI, F: 0.9, C: 0.95},
		},
	}
}
