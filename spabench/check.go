package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"

	"repro/internal/manifest"
)

// goldenEntry is what one workload on one seed must reproduce: the SHA-256
// of every report, by name, and the exact totals.
type goldenEntry struct {
	Reports map[string]string `json:"reports,omitempty"`
	Counts  map[string]int64  `json:"counts,omitempty"`
}

// goldenFile is golden.json: workload -> seed -> entry.
type goldenFile map[string]map[string]*goldenEntry

func loadGolden(path string) (goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := goldenFile{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func (g goldenFile) lookup(workload string, seed uint64) *goldenEntry {
	return g[workload][strconv.FormatUint(seed, 10)]
}

// store merges got into the file's entry for (workload, seed) and rewrites
// the file.
func (g goldenFile) store(path, workload string, seed uint64, got goldenEntry) error {
	if g[workload] == nil {
		g[workload] = map[string]*goldenEntry{}
	}
	key := strconv.FormatUint(seed, 10)
	e := g[workload][key]
	if e == nil {
		e = &goldenEntry{}
		g[workload][key] = e
	}
	for name, sum := range got.Reports {
		if e.Reports == nil {
			e.Reports = map[string]string{}
		}
		e.Reports[name] = sum
	}
	for name, v := range got.Counts {
		if e.Counts == nil {
			e.Counts = map[string]int64{}
		}
		e.Counts[name] = v
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// outcome is what one repetition's timed phase produced.
type outcome struct {
	reports []namedReport
	// counts are exact totals that must repeat run to run on a seed:
	// full_runs and sim_runs always, plus any the workload adds.
	counts map[string]int64
	// ops and failures count operations the workload itself judged
	// (HTTP submissions, campaign states, fleet fallbacks).
	ops      int
	failures []string
	// bypass holds counts, observed in the timed phase, of layers the
	// workload claims to skip; each must be 0.
	bypass map[string]int64
}

type namedReport struct {
	name string
	body []byte
}

// check judges one repetition's outcome: every report parses, has no
// analysis error, has lo <= hi and converged adaptive analyses, and on a
// committed seed matches its digest; every exact count matches the
// committed one and the earlier repetitions'. It adds full_runs, the
// full-scale samples the reports rest on, to the outcome's counts.
func (b *bench) check(out *outcome) {
	b.attempted += out.ops - len(out.failures)
	for _, f := range out.failures {
		b.fail(f)
	}
	var full int64
	for _, r := range out.reports {
		n, analyses, bad, err := checkReport(r.body)
		full += n
		b.op(err == nil, fmt.Sprintf("report %s: %v", r.name, err))
		b.attempted += analyses - len(bad)
		for _, why := range bad {
			b.fail(fmt.Sprintf("report %s: %s", r.name, why))
		}
		digest := sha256Hex(r.body)
		if b.got.Reports == nil {
			b.got.Reports = map[string]string{}
		}
		if prev, ok := b.got.Reports[r.name]; ok {
			b.op(prev == digest, fmt.Sprintf("report %s changed between repetitions", r.name))
		}
		b.got.Reports[r.name] = digest
		if b.want != nil {
			want, ok := b.want.Reports[r.name]
			b.op(ok && want == digest, fmt.Sprintf("report %s: digest %s, committed %q", r.name, digest, want))
		}
	}
	if b.want != nil {
		for _, name := range sortedKeys(b.want.Reports) {
			if !hasReport(out.reports, name) {
				b.op(false, "committed report "+name+" was not produced")
			}
		}
	}
	if out.counts == nil {
		out.counts = map[string]int64{}
	}
	out.counts["full_runs"] = full
	b.checkCounts(out.counts)
	for _, name := range sortedKeys(out.bypass) {
		v := out.bypass[name]
		b.op(v == 0, fmt.Sprintf("%s is %d on a workload that bypasses it", name, v))
	}
	if out.bypass != nil {
		b.bypassed = out.bypass
	}
}

// checkCounts compares exact counts with the committed values and with
// earlier repetitions of this invocation.
func (b *bench) checkCounts(counts map[string]int64) {
	if b.got.Counts == nil {
		b.got.Counts = map[string]int64{}
	}
	for _, name := range sortedKeys(counts) {
		v := counts[name]
		if prev, ok := b.got.Counts[name]; ok {
			b.op(prev == v, fmt.Sprintf("count %s: %d, an earlier repetition had %d", name, v, prev))
		}
		b.got.Counts[name] = v
		if b.want != nil {
			if want, ok := b.want.Counts[name]; ok {
				b.op(want == v, fmt.Sprintf("count %s: %d, committed %d", name, v, want))
			}
		}
	}
}

// op records one attempted operation, failed unless ok.
func (b *bench) op(ok bool, why string) {
	if ok {
		b.attempted++
		return
	}
	b.fail(why)
}

// checkReport validates a report's structure and judges each analysis:
// an error, lo > hi, or an adaptive analysis that ran out of budget fails
// it. It returns the full-scale samples the report rests on (each fixed
// population once, plus every adaptive analysis's samples), the number of
// analyses and the failed ones.
func checkReport(body []byte) (full int64, analyses int, bad []string, err error) {
	var rep manifest.Report
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return 0, 0, nil, err
	}
	if len(rep.Results) == 0 {
		return 0, 0, nil, errors.New("no results")
	}
	fixed := map[string]bool{}
	for _, r := range rep.Results {
		switch {
		case r.TargetWidth > 0:
			full += int64(r.Samples)
		case !fixed[r.Entry]:
			fixed[r.Entry] = true
			full += int64(r.Samples)
		}
		id := fmt.Sprintf("%s %s f=%g", r.Entry, r.Metric, r.F)
		if r.Sampling != "" {
			id += " " + r.Sampling
		}
		switch {
		case r.Err != "":
			bad = append(bad, id+": "+r.Err)
		case r.Interval.Lo > r.Interval.Hi:
			bad = append(bad, fmt.Sprintf("%s: lo %g > hi %g", id, r.Interval.Lo, r.Interval.Hi))
		case r.TargetWidth > 0 && !r.Converged:
			bad = append(bad, id+": did not converge")
		}
	}
	return full, len(rep.Results), bad, nil
}

// pilotRuns sums the pilot runs a report's analyses list.
func pilotRuns(body []byte) (int64, error) {
	var rep manifest.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, err
	}
	var n int64
	for _, r := range rep.Results {
		n += int64(r.PilotRuns)
	}
	return n, nil
}

// sha256Hex is the hex SHA-256 of b.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func hasReport(rs []namedReport, name string) bool {
	for _, r := range rs {
		if r.name == name {
			return true
		}
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
