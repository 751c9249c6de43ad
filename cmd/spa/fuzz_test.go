package main

import (
	"bufio"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var lineError = regexp.MustCompile(`^line ([0-9]+): `)

// FuzzReadValues feeds arbitrary text to spa's value reader. Whatever the
// input, readValues must not panic. A rejected input gets an error that
// names one of its lines, "no values read", or the scanner's own error.
// An accepted input yields only finite values, one per non-blank,
// non-comment line, and writing them back with FormatFloat(v, 'g', -1, 64)
// reads back to the same bits.
func FuzzReadValues(f *testing.F) {
	for _, seed := range []string{
		manyValuesText(),
		oneToTwenty(),
		"1\n2\n3\n",
		"1.0\nnot-a-number\n",
		"# only a comment\n",
		"",
		" 1e308 \r\n-0\n0x1p-1074\n\t# indented comment\n5",
	} {
		f.Add(seed)
	}
	for _, bad := range nonFiniteSpellings {
		f.Add(withBadLine5(bad))
	}
	f.Fuzz(func(t *testing.T, in string) {
		vals, err := readValues(strings.NewReader(in))
		lines := strings.Split(in, "\n")
		if err != nil {
			msg := err.Error()
			if m := lineError.FindStringSubmatch(msg); m != nil {
				if n, _ := strconv.Atoi(m[1]); n < 1 || n > len(lines) {
					t.Fatalf("error names line %s of %d: %v", m[1], len(lines), err)
				}
			} else if msg != "no values read" && err != bufio.ErrTooLong {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		want := 0
		for _, line := range lines {
			if text := strings.TrimSpace(line); text != "" && !strings.HasPrefix(text, "#") {
				want++
			}
		}
		if len(vals) != want {
			t.Fatalf("%d values from %d value lines", len(vals), want)
		}
		var back strings.Builder
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite value %v", v)
			}
			back.WriteString(strconv.FormatFloat(v, 'g', -1, 64) + "\n")
		}
		again, err := readValues(strings.NewReader(back.String()))
		if err != nil {
			t.Fatalf("reading back %q: %v", back.String(), err)
		}
		for i := range vals {
			if math.Float64bits(again[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("value %d: %v read back as %v", i, vals[i], again[i])
			}
		}
	})
}
