package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/manifest"
)

// renderTelemetry reads a campaign report (<name>-report.json) and writes
// one runs-vs-width convergence table per adaptive result: how many
// executions each refinement round had, how wide the SPA interval was,
// and how far from the target that left it.
func renderTelemetry(path string, w io.Writer) error {
	body, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep manifest.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var adaptive []manifest.AnalysisResult
	for _, res := range rep.Results {
		if res.TargetWidth > 0 {
			adaptive = append(adaptive, res)
		}
	}
	if len(adaptive) == 0 {
		return fmt.Errorf("%s: no adaptive analyses in report", path)
	}
	fmt.Fprintf(w, "convergence traces: %d adaptive analyses\n", len(adaptive))
	for _, res := range adaptive {
		design := res.Sampling
		if design == "" {
			design = "plain"
		}
		verdict := "hit sample budget"
		switch {
		case res.Err != "":
			verdict = "error: " + res.Err
		case res.Converged:
			verdict = "converged"
		}
		fmt.Fprintf(w, "\n%s %s F=%g C=%g %s (target width %g, %d rounds, %s)\n",
			res.Entry, res.Metric, res.F, res.C, design, res.TargetWidth, len(res.Rounds), verdict)
		fmt.Fprintf(w, "  %-6s %-8s %-14s %s\n", "round", "runs", "width", "of-target")
		for _, rd := range res.Rounds {
			fmt.Fprintf(w, "  %-6d %-8d %-14.6g %.3gx\n", rd.Round, rd.Samples, rd.Width, rd.Width/res.TargetWidth)
		}
	}
	return nil
}
