package gem5

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleStats = `
---------- Begin Simulation Statistics ----------
simSeconds                                   0.001432                       # Number of seconds simulated (Second)
simTicks                                 1432000000                       # Number of ticks simulated (Tick)
system.cpu0.ipc                              0.712345                       # IPC: instructions per cycle
system.cpu0.numCycles                        20123456                       # Number of cpu cycles simulated
system.l2.overallMissRate::total             0.134000                       # miss rate for overall accesses
system.l2.overallMisses::total                  98765                       # number of overall misses
system.mem_ctrl.avgRdBWSys                   1234.56%                       # percentage-style vector row
badline
system.cpu0.someHist::samples                     inf                       # unusable placeholder
---------- End Simulation Statistics   ----------
`

const twoSections = sampleStats + `
---------- Begin Simulation Statistics ----------
simSeconds                                   0.002000
system.cpu0.ipc                              0.650000
---------- End Simulation Statistics   ----------
`

func TestParseScalars(t *testing.T) {
	st, err := Parse(strings.NewReader(sampleStats))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := st.Metric("simSeconds"); err != nil || v != 0.001432 {
		t.Errorf("simSeconds = %v, %v", v, err)
	}
	if v, err := st.Metric("system.cpu0.ipc"); err != nil || v != 0.712345 {
		t.Errorf("ipc = %v, %v", v, err)
	}
	if v, err := st.Metric("system.l2.overallMisses::total"); err != nil || v != 98765 {
		t.Errorf("vector total = %v, %v", v, err)
	}
	if v, err := st.Metric("system.mem_ctrl.avgRdBWSys"); err != nil || v != 1234.56 {
		t.Errorf("percent-suffixed value = %v, %v", v, err)
	}
	if _, err := st.Metric("system.cpu0.someHist::samples"); err == nil {
		t.Error("inf placeholder should be skipped")
	}
	if _, err := st.Metric("badline"); err == nil {
		t.Error("malformed line should be skipped")
	}
}

// TestParseLineSkipsNonFinite: ParseFloat accepts NaN and ±Inf in any
// case and spelling, and overflows to ±Inf; none of them is stored.
func TestParseLineSkipsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		line string
		want float64
		ok   bool
	}{
		{"foo NaN", 0, false},
		{"foo nan # placeholder", 0, false},
		{"foo -nan", 0, false},
		{"bar +Inf", 0, false},
		{"bar inf", 0, false},
		{"bar -INF", 0, false},
		{"baz Infinity", 0, false},
		{"baz -infinity", 0, false},
		{"pct nan%", 0, false},
		{"big 1e999", 0, false},
		{"bucket |", 0, false},
		{"lonely", 0, false},
		{"ipc 0.75 # ipc", 0.75, true},
		{"neg -3", -3, true},
		{"pct 12.5%", 12.5, true},
		{"hex 0x1p-2", 0.25, true},
		{"max 1.7976931348623157e308", math.MaxFloat64, true},
	} {
		name, v, ok := parseLine(tc.line)
		if ok != tc.ok || (ok && (v != tc.want || name != strings.Fields(tc.line)[0])) {
			t.Errorf("parseLine(%q) = %q, %v, %v; want ok=%v value %v", tc.line, name, v, ok, tc.ok, tc.want)
		}
	}
}

func TestParseTakesLastSection(t *testing.T) {
	st, err := Parse(strings.NewReader(twoSections))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Metric("system.cpu0.ipc"); v != 0.65 {
		t.Errorf("should read the last section's ipc, got %v", v)
	}
	all, err := ParseAll(strings.NewReader(twoSections))
	if err != nil || len(all) != 2 {
		t.Fatalf("ParseAll = %d sections, %v", len(all), err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("no markers here")); err == nil {
		t.Error("stream without sections should error")
	}
	// An unterminated section is tolerated (killed run).
	trunc := strings.Split(sampleStats, "---------- End")[0]
	st, err := Parse(strings.NewReader(trunc))
	if err != nil {
		t.Fatalf("truncated dump should still parse: %v", err)
	}
	if _, err := st.Metric("simSeconds"); err != nil {
		t.Error("truncated dump lost stats")
	}
}

func TestFind(t *testing.T) {
	st, _ := Parse(strings.NewReader(sampleStats))
	hits := st.Find("l2")
	if len(hits) != 2 {
		t.Errorf("Find(l2) = %v", hits)
	}
	if len(st.Find("zzz")) != 0 {
		t.Error("Find should return nothing for no matches")
	}
}

// writeStats writes a stats.txt with the given ipc and an extra stat that
// only some files carry (to exercise common-metric intersection).
func writeStats(t *testing.T, dir, name string, ipc float64, extra bool) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("---------- Begin Simulation Statistics ----------\n")
	fmt.Fprintf(&sb, "simSeconds  0.001  # seconds\n")
	fmt.Fprintf(&sb, "system.cpu0.ipc  %g  # ipc\n", ipc)
	if extra {
		sb.WriteString("system.only.sometimes  1.0\n")
	}
	sb.WriteString("---------- End Simulation Statistics   ----------\n")
	if err := os.WriteFile(filepath.Join(dir, name), []byte(sb.String()), 0o600); err != nil {
		t.Fatal(err)
	}
}

func TestPopulationFromGlob(t *testing.T) {
	dir := t.TempDir()
	writeStats(t, dir, "run1.txt", 0.70, true)
	writeStats(t, dir, "run2.txt", 0.72, false)
	writeStats(t, dir, "run3.txt", 0.68, true)

	pop, err := Population(filepath.Join(dir, "run*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if pop.Runs != 3 {
		t.Fatalf("runs = %d", pop.Runs)
	}
	ipcs, err := pop.Metric("system.cpu0.ipc")
	if err != nil {
		t.Fatal(err)
	}
	// Sorted path order: run1, run2, run3.
	want := []float64{0.70, 0.72, 0.68}
	for i := range want {
		if ipcs[i] != want[i] {
			t.Errorf("ipc[%d] = %g, want %g", i, ipcs[i], want[i])
		}
	}
	// The sometimes-present stat must be dropped (not common to all runs).
	if _, err := pop.Metric("system.only.sometimes"); err == nil {
		t.Error("non-common stat should be excluded from the population")
	}
}

func TestPopulationErrors(t *testing.T) {
	if _, err := Population(filepath.Join(t.TempDir(), "none*.txt")); err == nil {
		t.Error("empty glob should error")
	}
	if _, err := Population("[bad-glob"); err == nil {
		t.Error("invalid glob should error")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.txt"), []byte("no markers"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Population(filepath.Join(dir, "bad.txt")); err == nil {
		t.Error("unparseable file should error")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Error("missing file should error")
	}
}
