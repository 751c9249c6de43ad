// Package gem5 bridges real gem5 output into the SPA toolchain. The
// paper's released artifact integrates SPA with gem5 (Sec. 1, 5.1); this
// package parses gem5's stats.txt format — the whitespace-separated
// "name value [# description]" dumps between `---------- Begin Simulation
// Statistics ----------` markers — so populations of real simulator runs
// can be analyzed by cmd/spa exactly like this repository's synthetic
// substrate.
package gem5

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/population"
)

// Stats is one simulation's scalar statistics, keyed by the full
// dotted stat name (e.g. "system.cpu0.ipc").
type Stats map[string]float64

// beginMarker/endMarker delimit a dump section in gem5 stats files.
const (
	beginMarker = "Begin Simulation Statistics"
	endMarker   = "End Simulation Statistics"
)

// Parse reads one stats.txt stream. Files may contain several dump
// sections (gem5 appends one per m5_dumpstats); Parse returns the LAST
// section, which by convention covers the region of interest in
// checkpoint-style runs. Non-scalar lines (histograms, vectors with
// per-bucket rows, nan/inf placeholders) are skipped.
func Parse(r io.Reader) (Stats, error) {
	sections, err := ParseAll(r)
	if err != nil {
		return nil, err
	}
	if len(sections) == 0 {
		return nil, errors.New("gem5: no statistics sections found")
	}
	return sections[len(sections)-1], nil
}

// ParseAll reads every dump section in the stream, in order.
func ParseAll(r io.Reader) ([]Stats, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var (
		sections []Stats
		cur      Stats
		inBody   bool
		lineNo   int
	)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		switch {
		case strings.Contains(line, beginMarker):
			cur = make(Stats)
			inBody = true
			continue
		case strings.Contains(line, endMarker):
			if inBody {
				sections = append(sections, cur)
				cur = nil
				inBody = false
			}
			continue
		}
		if !inBody {
			continue
		}
		name, value, ok := parseLine(line)
		if ok {
			cur[name] = value
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gem5: reading stats at line %d: %w", lineNo, err)
	}
	// Tolerate a final unterminated section (a run killed mid-dump).
	if inBody && len(cur) > 0 {
		sections = append(sections, cur)
	}
	return sections, nil
}

// parseLine extracts a scalar stat from one dump line.
func parseLine(line string) (string, float64, bool) {
	// Strip the trailing "# description" comment first.
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return "", 0, false
	}
	// Vector stats repeat the name with ::bucket suffixes; keep them —
	// they are legitimate scalars. Percentages like "12.34%" appear in some
	// vector rows. ParseFloat accepts NaN and ±Inf in any spelling
	// ("nan", "NaN", "+Inf", "Infinity"), and overflows to ±Inf, so any
	// non-finite result is skipped with the non-numerics.
	v, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return "", 0, false
	}
	return fields[0], v, true
}

// Metric returns a stat by exact name.
func (s Stats) Metric(name string) (float64, error) {
	v, ok := s[name]
	if !ok {
		return 0, fmt.Errorf("gem5: no stat %q", name)
	}
	return v, nil
}

// Find returns the stats whose names contain the given substring, sorted —
// the discovery aid for long gem5 stat lists.
func (s Stats) Find(substr string) []string {
	var out []string
	for name := range s {
		if strings.Contains(name, substr) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// LoadFile parses a stats.txt on disk (last section).
func LoadFile(path string) (Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Population assembles a population from a glob of stats files — one run
// per file, as produced by repeated seeded gem5 invocations — extracting
// every stat common to all files. Files are taken in sorted path order so
// the population is stable.
func Population(glob string) (*population.Population, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, fmt.Errorf("gem5: bad glob %q: %w", glob, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("gem5: no files match %q", glob)
	}
	sort.Strings(paths)

	all := make([]Stats, len(paths))
	for i, p := range paths {
		st, err := LoadFile(p)
		if err != nil {
			return nil, fmt.Errorf("gem5: %s: %w", p, err)
		}
		all[i] = st
	}
	// Metrics present in every run.
	common := make(map[string]bool, len(all[0]))
	for name := range all[0] {
		common[name] = true
	}
	for _, st := range all[1:] {
		for name := range common {
			if _, ok := st[name]; !ok {
				delete(common, name)
			}
		}
	}
	if len(common) == 0 {
		return nil, errors.New("gem5: runs share no common stats")
	}
	pop := &population.Population{
		Benchmark: glob,
		Runs:      len(paths),
		Metrics:   make(map[string][]float64, len(common)),
	}
	for _, st := range all {
		for name := range common {
			pop.Metrics[name] = append(pop.Metrics[name], st[name])
		}
	}
	return pop, nil
}
