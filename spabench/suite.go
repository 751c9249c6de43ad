package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sim"
)

// suite-cold: the whole suite through manifest.Runner in process, fixed
// analyses only. The simulator does nearly all the work, so a simulator
// change shows undiluted; dist, popcache, sampling and campaignd are
// bypassed.
const (
	suiteScale       = 0.05
	suiteRuns        = 100
	suiteParallelism = 2
)

func suiteManifest(seed uint64) *manifest.Manifest {
	m := &manifest.Manifest{Name: "suite-cold", Seed: manifestSeed(seed, 0), Scale: suiteScale, Runs: suiteRuns}
	for _, p := range profiles {
		m.Entries = append(m.Entries, manifest.Entry{Benchmark: p})
	}
	// The L2-thrashing and the L2-friendly profile again, with the L2
	// halved and doubled: footprint relative to the modelled cache.
	m.Entries = append(m.Entries,
		manifest.Entry{Benchmark: "canneal", Variant: "l2half"},
		manifest.Entry{Benchmark: "ferret", Variant: "l2double"})
	m.Analyses = []manifest.Analysis{
		{Metric: sim.MetricRuntime, F: 0.5, C: 0.9},
		{Metric: sim.MetricRuntime, F: 0.9, C: 0.9},
		{Metric: sim.MetricL2MPKI, F: 0.9, C: 0.95},
	}
	return m
}

type suite struct {
	dir string
	m   *manifest.Manifest
}

func setupSuite(dir string, seed uint64, _ *tracer) (instance, error) {
	m := suiteManifest(seed)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// The manifest is written out as a user would hand it to the CLI.
	if err := manifest.WriteFileAtomic(filepath.Join(dir, "suite-cold.json"), m.Save); err != nil {
		return nil, err
	}
	return &suite{dir: dir, m: m}, nil
}

func (s *suite) close() {}

func (s *suite) run(tr *tracer) (*outcome, error) {
	out := filepath.Join(s.dir, "out")
	if tr != nil {
		return s.traced(tr, out)
	}
	// The runner gets a metrics registry and a counting dialer, so the
	// runs it made and the layers it skipped are observed, not assumed.
	reg := obs.NewRegistry()
	dc := &dialCounter{}
	r := &manifest.Runner{OutDir: out, Parallelism: suiteParallelism,
		Obs: &obs.Observer{Metrics: reg}, Dial: dc.dial}
	if _, err := r.Run(s.m); err != nil {
		return nil, err
	}
	body, err := os.ReadFile(r.ReportPath(s.m))
	if err != nil {
		return nil, err
	}
	pilots, err := pilotRuns(body)
	if err != nil {
		return nil, err
	}
	return &outcome{
		reports: []namedReport{{s.m.Name, body}},
		counts:  map[string]int64{"sim_runs": reg.Counter(obs.MetricRunsCompleted).Value()},
		bypass: map[string]int64{
			"dist.dials":              dc.n.Load(),
			"dist.jobs":               int64(r.Coordinator().Status().JobsStarted),
			"manifest.entries_reused": reg.Counter(obs.MetricEntriesReused).Value(),
			"sampling.pilot_runs":     pilots,
		},
	}, nil
}

// traced composes the public calls manifest.Runner makes for a
// fixed-analysis manifest — population.GenerateHooked per entry, the
// population file write, core.ConfidenceInterval per analysis — with
// hooks on every run, and rebuilds the report, which must match the
// untraced digest byte for byte.
func (s *suite) traced(tr *tracer, out string) (*outcome, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	root := tr.begin("suite-cold", 0)
	hooks := population.RunHooks{
		OnRunDone: func(_ int, _ uint64, res *sim.Result, err error, elapsed time.Duration) {
			if err != nil || res == nil {
				return
			}
			tr.simRun(elapsed, res.Cycles)
			d := res.Detail
			tr.mu.Lock()
			tr.sim.l1dAcc += d.L1D.Hits + d.L1D.Misses
			tr.sim.l1dMiss += d.L1D.Misses
			tr.sim.l2Acc += d.L2.Hits + d.L2.Misses
			tr.sim.l2Miss += d.L2.Misses
			tr.sim.inval += d.Directory.Invalidations
			tr.sim.noc += d.Crossbar.Transfers
			tr.sim.dram += d.DRAM.Accesses
			tr.mu.Unlock()
		},
	}
	rep := manifest.Report{Name: s.m.Name}
	var generate time.Duration
	for idx, e := range s.m.Entries {
		cfg, err := e.Config()
		if err != nil {
			return nil, err
		}
		sp := tr.begin("population.generate", root.id)
		pop, err := population.GenerateHooked(e.Benchmark, cfg, s.m.Scale, s.m.Runs,
			s.m.Seed+uint64(idx)*1_000_000, suiteParallelism, hooks)
		generate += sp.end(map[string]any{"entry": e.Key(), "runs": s.m.Runs})
		if err != nil {
			return nil, fmt.Errorf("entry %s: %w", e.Key(), err)
		}
		path := filepath.Join(out, fmt.Sprintf("%s-%s.json", s.m.Name, e.Key()))
		if err := manifest.WriteFileAtomic(path, pop.Save); err != nil {
			return nil, err
		}
		for _, a := range s.m.Analyses {
			sp := tr.begin("core.interval", root.id)
			rep.Results = append(rep.Results, fixedResult(e, a, pop))
			sp.end(map[string]any{"entry": e.Key(), "metric": a.Metric})
		}
	}
	body, err := encodeReport(&rep)
	if err != nil {
		return nil, err
	}
	if err := manifest.WriteFileAtomic(filepath.Join(out, s.m.Name+"-report.json"),
		func(w io.Writer) error { _, err := w.Write(body); return err }); err != nil {
		return nil, err
	}
	root.end(nil)

	tr.simLayer()
	tr.set("population.generate_s", generate.Seconds())
	tr.count("sim.l1d.accesses", int64(tr.sim.l1dAcc))
	tr.count("sim.l1d.misses", int64(tr.sim.l1dMiss))
	tr.count("sim.l2.accesses", int64(tr.sim.l2Acc))
	tr.count("sim.l2.misses", int64(tr.sim.l2Miss))
	tr.count("sim.dir.invalidations", int64(tr.sim.inval))
	tr.count("sim.noc.transfers", int64(tr.sim.noc))
	tr.count("sim.dram.accesses", int64(tr.sim.dram))
	return &outcome{
		reports: []namedReport{{s.m.Name, body}},
		counts:  map[string]int64{"sim_runs": int64(len(tr.runMS))},
	}, nil
}

// fixedResult is manifest.Runner's fixed analysis of one population.
func fixedResult(e manifest.Entry, a manifest.Analysis, pop *population.Population) manifest.AnalysisResult {
	res := manifest.AnalysisResult{Entry: e.Key(), Metric: a.Metric, F: a.F, C: a.C, Direction: a.Direction}
	if res.Direction == "" {
		res.Direction = "atmost"
	}
	p, err := a.Params()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	xs, err := pop.Metric(a.Metric)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Samples = len(xs)
	iv, err := core.ConfidenceInterval(xs, p)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Interval = iv
	return res
}

// encodeReport renders a report exactly as manifest.Runner writes it.
func encodeReport(rep *manifest.Report) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
