package gem5

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzParseAll feeds arbitrary text to the stats reader. Whatever the
// input, ParseAll must not panic, must store only finite values, and must
// return no more sections than the input has begin markers.
func FuzzParseAll(f *testing.F) {
	trunc := strings.Split(sampleStats, "---------- End")[0]
	for _, seed := range []string{
		sampleStats,
		twoSections,
		trunc,
		"no markers here",
		"---------- Begin Simulation Statistics ----------\nfoo NaN\nbar +Inf\nbaz Infinity\nok 1\n" +
			"---------- End Simulation Statistics   ----------\n",
		"---------- Begin Simulation Statistics ---------- ---------- End Simulation Statistics ----------\nx 1\n",
		"---------- End Simulation Statistics   ----------\n---------- Begin Simulation Statistics ----------\n",
		fmt.Sprintf("---------- Begin Simulation Statistics ----------\nsimSeconds %g\n", 0.001),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sections, err := ParseAll(strings.NewReader(in))
		if err != nil {
			return // an over-long line; nothing was stored
		}
		if n := strings.Count(in, beginMarker); len(sections) > n {
			t.Fatalf("%d sections from %d begin markers", len(sections), n)
		}
		for i, st := range sections {
			for name, v := range st {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("section %d stored %q = %v", i, name, v)
				}
			}
		}
	})
}
