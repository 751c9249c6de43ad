package campaignd

import (
	"testing"

	"repro/internal/manifest"
)

// TestSpecCost: the scheduler charges each entry's resolved population
// size — the entry's own run count, else the manifest's, else 100.
func TestSpecCost(t *testing.T) {
	entries := []manifest.Entry{
		{Benchmark: "swaptions", Runs: 7},
		{Benchmark: "swaptions", Variant: "l2half"},
	}
	for _, tc := range []struct {
		name string
		runs int
		want int
	}{
		{"manifest-level", 30, 7 + 30},
		{"default", 0, 7 + 100},
	} {
		s := &Spec{Tenant: "acme", Manifest: &manifest.Manifest{Name: "c", Runs: tc.runs, Entries: entries}}
		if got := s.Cost(); got != tc.want {
			t.Errorf("%s: cost %d, want %d", tc.name, got, tc.want)
		}
	}
}
