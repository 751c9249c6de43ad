package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pairedFiles writes a baseline and a change file of one benchmark, X,
// run once per ratio: the baseline's i-th line reads 1000 ns/op and the
// change's 1000·ratios[i], and both report 0 allocs/op and 4096 B/op.
func pairedFiles(t *testing.T, ratios []float64) (in, base string) {
	t.Helper()
	var cur, prev strings.Builder
	for _, r := range ratios {
		fmt.Fprintf(&prev, "BenchmarkX-2  3  1000 ns/op  4096 B/op  0 allocs/op\n")
		fmt.Fprintf(&cur, "BenchmarkX-2  3  %g ns/op  4096 B/op  0 allocs/op\n", 1000*r)
	}
	dir := t.TempDir()
	in, base = filepath.Join(dir, "new.txt"), filepath.Join(dir, "base.txt")
	if err := os.WriteFile(in, []byte(cur.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, []byte(prev.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return in, base
}

// pairedRows runs benchreport -paired and returns its rows by unit, each
// row's fields after the benchmark name.
func pairedRows(t *testing.T, ratios []float64) map[string][]string {
	t.Helper()
	in, base := pairedFiles(t, ratios)
	var out bytes.Buffer
	if err := run([]string{"-paired", "-in", in, "-baseline", base}, nil, &out); err != nil {
		t.Fatal(err)
	}
	rows := make(map[string][]string)
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		rows[f[1]] = f[2:]
	}
	return rows
}

// repeat returns n copies of r.
func repeat(r float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r
	}
	return out
}

// TestPairedVerdicts: over 10 pairs the interval runs from the 2nd to the
// 9th smallest ratio, so the change is lower when it wins at least 9
// pairs, higher when it loses at least 9, and unresolved otherwise.
func TestPairedVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ratios []float64
		want   string
	}{
		{"10 wins", repeat(0.9, 10), "lower"},
		{"9 wins", append(repeat(0.95, 9), 1.2), "lower"},
		{"8 wins", append(repeat(0.95, 8), 1.1, 1.2), "unresolved"},
		{"5 wins", append(repeat(0.9, 5), repeat(1.1, 5)...), "unresolved"},
		{"9 losses", append(repeat(1.05, 9), 0.8), "higher"},
		{"10 losses", repeat(1.3, 10), "higher"},
	} {
		rows := pairedRows(t, tc.ratios)
		ns := rows["ns/op"]
		if len(ns) != 5 || ns[0] != "10" || ns[4] != tc.want {
			t.Errorf("%s: ns/op row %q, want 10 pairs and verdict %s", tc.name, ns, tc.want)
		}
		// Equal values on both sides, 0/0 included, read as ratio 1.
		for _, unit := range []string{"B/op", "allocs/op"} {
			if got := strings.Join(rows[unit], " "); got != "10 1.0000 [1.0000, 1.0000] unresolved" {
				t.Errorf("%s: %s row %q, want ratio 1 and unresolved", tc.name, unit, got)
			}
		}
	}
	rows := pairedRows(t, []float64{0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99, 1.01})
	if got := strings.Join(rows["ns/op"], " "); got != "10 0.9500 [0.9200, 0.9900] lower" {
		t.Errorf("ns/op row %q, want the 5th ratio as median (inverted CDF) and the 2nd to 9th as interval", got)
	}
}

// TestPairedRefuses: too few pairs for the interval, unequal line counts,
// a zero baseline under a nonzero change and a missing baseline are
// errors, not verdicts.
func TestPairedRefuses(t *testing.T) {
	in, base := pairedFiles(t, repeat(0.9, 4))
	if err := run([]string{"-paired", "-in", in, "-baseline", base}, nil, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "at least 5") {
		t.Errorf("4 pairs: err %v, want one naming the 5 the interval needs", err)
	}
	in, _ = pairedFiles(t, repeat(0.9, 6))
	_, base = pairedFiles(t, repeat(0.9, 5))
	if err := run([]string{"-paired", "-in", in, "-baseline", base}, nil, &bytes.Buffer{}); err == nil {
		t.Error("6 lines against 5 baseline lines gave no error")
	}
	in, base = pairedFiles(t, repeat(0.9, 6))
	body, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, bytes.ReplaceAll(body, []byte(" 0 allocs/op"), []byte(" 2 allocs/op")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-paired", "-in", in, "-baseline", base}, nil, &bytes.Buffer{}); err == nil {
		t.Error("a zero baseline under a nonzero change gave no error")
	}
	if err := run([]string{"-paired", "-in", in}, nil, &bytes.Buffer{}); err == nil {
		t.Error("-paired without -baseline gave no error")
	}
}
