package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites testdata/quick.txt from the current build.
var updateQuick = flag.Bool("update", false, "rewrite testdata/quick.txt")

// TestQuickOutputPinned pins every byte `experiments -all -quick` prints:
// each table and figure runs the simulator, the population assembly and
// the interval constructions end to end, so a change anywhere in them that
// moves a result shows here as a diff.
func TestQuickOutputPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-all", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "quick.txt")
	if *updateQuick {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading pinned output (regenerate with -update): %v", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gotLines), path, len(wantLines))
	}
}
