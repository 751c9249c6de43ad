package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/stats"
)

// pairedParams is the SPA question asked of each benchmark's paired
// ratios: an interval for their median at 90% confidence. For 10 pairs it
// runs from the 2nd to the 9th order statistic, so "lower" there means
// the change won at least 9 of the 10 pairs.
var pairedParams = core.Params{F: 0.5, C: 0.9}

// renderPaired judges a change against its baseline from benchmark text
// repeated in alternating run order: the i-th line of a name in rep is
// paired with the i-th line of that name in base. For ns/op and every
// metric both sides report on every line, it prints the median
// change/baseline ratio, the SPA interval of that median and a verdict:
// lower or higher when the interval lies below or above 1, unresolved
// when it does not. A name only one side ran is skipped; one with fewer
// pairs than the interval needs, or with unequal line counts, is an
// error.
func renderPaired(rep, base *Report, w io.Writer) error {
	minPairs, err := core.CIMinSamples(pairedParams)
	if err != nil {
		return err
	}
	news, olds := byName(rep.lines), byName(base.lines)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\tunit\tpairs\tmedian ratio\tinterval (F=%g, C=%g)\tverdict\n", pairedParams.F, pairedParams.C)
	for _, b := range rep.Benchmarks {
		cur, prev := news[b.Name], olds[b.Name]
		if len(prev) == 0 {
			continue
		}
		if len(cur) != len(prev) {
			return fmt.Errorf("%s: %d lines against %d baseline lines, want one pair per run", b.Name, len(cur), len(prev))
		}
		if len(cur) < minPairs {
			return fmt.Errorf("%s: %d pairs, the interval needs at least %d", b.Name, len(cur), minPairs)
		}
		for _, unit := range pairedUnits(cur, prev) {
			ratios := make([]float64, len(cur))
			for i := range cur {
				c, p := unitValue(cur[i], unit), unitValue(prev[i], unit)
				if p == 0 && c != 0 {
					return fmt.Errorf("%s %s: a baseline value of 0 has no ratio", b.Name, unit)
				}
				ratios[i] = 1 // 0/0: both sides read the same
				if p != 0 {
					ratios[i] = c / p
				}
			}
			sort.Float64s(ratios)
			med, err := stats.Median(ratios)
			if err != nil {
				return err
			}
			iv, err := core.ConfidenceIntervalSorted(ratios, pairedParams)
			if err != nil {
				return fmt.Errorf("%s %s: %w", b.Name, unit, err)
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4f\t[%.4f, %.4f]\t%s\n", b.Name, unit, len(ratios), med, iv.Lo, iv.Hi, verdict(iv))
		}
	}
	return tw.Flush()
}

// verdict reads a ratio interval against 1.
func verdict(iv stats.Interval) string {
	switch {
	case iv.Hi < 1:
		return "lower"
	case iv.Lo > 1:
		return "higher"
	}
	return "unresolved"
}

// byName groups benchmark lines by name, keeping their order.
func byName(lines []Benchmark) map[string][]Benchmark {
	out := make(map[string][]Benchmark)
	for _, b := range lines {
		out[b.Name] = append(out[b.Name], b)
	}
	return out
}

// pairedUnits returns ns/op and, sorted, every metric that each line of
// both sides reports.
func pairedUnits(cur, prev []Benchmark) []string {
	reports := func(lines []Benchmark, unit string) bool {
		for _, b := range lines {
			if _, ok := b.Metrics[unit]; !ok {
				return false
			}
		}
		return true
	}
	var metrics []string
	for unit := range cur[0].Metrics {
		if reports(cur, unit) && reports(prev, unit) {
			metrics = append(metrics, unit)
		}
	}
	sort.Strings(metrics)
	return append([]string{"ns/op"}, metrics...)
}

// unitValue returns a line's ns/op or one of its metrics.
func unitValue(b Benchmark, unit string) float64 {
	if unit == "ns/op" {
		return b.NsPerOp
	}
	return b.Metrics[unit]
}
