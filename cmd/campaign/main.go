// Command campaign executes declarative experiment manifests: simulate the
// listed benchmark populations (resuming any already on disk) and run the
// listed SPA analyses over each, producing a JSON report — the
// gem5art-style automation layer the paper's Sec. 7 anticipates.
//
// Usage:
//
//	campaign -init > my.json        # write a template manifest
//	campaign -manifest my.json -out results/
//	campaign -manifest my.json -out results/ -workers host1:9777,host2:9777
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/dist"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/popcache"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	path := fs.String("manifest", "", "manifest JSON file")
	out := fs.String("out", "campaign-out", "output directory for populations and the report")
	parallel := fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	workers := fs.String("workers", "", "comma-separated spaworker addresses (host:port,...) to distribute simulations across; results are byte-identical to a local run")
	popcacheDir := fs.String("popcache", "", "content-addressed population cache directory shared across campaigns; hits are byte-identical to re-simulating")
	initTpl := fs.Bool("init", false, "print a template manifest and exit")
	quiet := fs.Bool("quiet", false, "suppress all progress output (overrides -progress)")
	version := fs.Bool("version", false, "print build information and exit")
	var of obs.Flags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Fprint(w, "campaign")
		return nil
	}
	if *initTpl {
		return manifest.Template().Save(w)
	}
	if *path == "" {
		return fmt.Errorf("provide -manifest (or -init for a template)")
	}
	f, err := os.Open(*path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := manifest.Load(f)
	if err != nil {
		return err
	}
	o, closeObs, err := of.Start("runs", w)
	if err != nil {
		return err
	}
	// Every progress line — per-entry milestones, per-run ticks, the
	// report path — flows through the one progress reporter, so -quiet
	// silences all of it consistently (it also overrides -progress).
	switch {
	case *quiet:
		if o != nil {
			o.Progress = nil
		}
	case o == nil:
		o = &obs.Observer{Progress: obs.NewProgress(w, "runs", 0)}
	case o.Progress == nil:
		o.Progress = obs.NewProgress(w, "runs", 0)
	}
	runner := &manifest.Runner{OutDir: *out, Parallelism: *parallel, Obs: o, Workers: dist.SplitAddrs(*workers)}
	// /statusz reports the campaign and the coordinator's live chunk and
	// per-worker state for the duration of the run.
	o.SetStatus(func() any {
		return struct {
			Campaign string                 `json:"campaign"`
			Workers  []string               `json:"configured_workers,omitempty"`
			Coord    dist.CoordinatorStatus `json:"coordinator"`
		}{m.Name, runner.Workers, runner.Coordinator().Status()}
	})
	if *popcacheDir != "" {
		runner.PopCache = popcache.New(*popcacheDir, 0)
	}
	report, err := runner.Run(m)
	if err != nil {
		closeObs()
		return err
	}
	if !*quiet {
		report.Render(w)
	} else {
		// -quiet keeps machine-readable output only: the report JSON on
		// disk plus a single completion line.
		fmt.Fprintf(w, "campaign %s: %d results written to %s\n",
			report.Name, len(report.Results), runner.ReportPath(m))
	}
	return closeObs()
}
