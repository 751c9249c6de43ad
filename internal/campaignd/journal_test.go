package campaignd

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const fuzzID = "c00000001"

// journaledRecord is the record Submit journals for a two-entry
// campaign, the base every corrupt-record case edits.
func journaledRecord() *Record {
	return newRecord(fuzzID, 1, Spec{Tenant: "acme", Manifest: testManifest("jr", 2, 8)}, 1)
}

// writeRecord puts body where the journal keeps campaign id's record.
func writeRecord(t testing.TB, dataDir, id string, body []byte) {
	t.Helper()
	dir := filepath.Join(dataDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, recordFile), body, 0o600); err != nil {
		t.Fatal(err)
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStartRejectsCorruptRecord: a journaled record that breaks an
// admission invariant fails Start with a typed error naming its file,
// instead of being scheduled (a record without a manifest used to panic
// in the runner) or journaling into another campaign's directory.
func TestStartRejectsCorruptRecord(t *testing.T) {
	edit := func(f func(r *Record)) []byte {
		r := journaledRecord()
		f(r)
		return mustMarshal(t, r)
	}
	cases := []struct {
		name, dir string
		body      []byte
	}{
		{"no manifest", fuzzID, []byte(`{"id":"c00000001","seq":1,"spec":{"tenant":"a"},"state":"queued"}`)},
		{"undecodable", fuzzID, []byte(`{"id":`)},
		{"id of another directory", "c00000002", edit(func(*Record) {})},
		{"invalid manifest", fuzzID, edit(func(r *Record) { r.Spec.Manifest.Entries[0].Benchmark = "nope" })},
		{"unknown state", fuzzID, edit(func(r *Record) { r.State = "paused" })},
		{"progress rows", fuzzID, edit(func(r *Record) { r.Entries = r.Entries[:1] })},
		{"zero weight", fuzzID, edit(func(r *Record) { r.Weight = 0 })},
		{"weight above the priority cap", fuzzID, edit(func(r *Record) { r.Weight = maxPriority + 1 })},
		{"negative cost", fuzzID, edit(func(r *Record) { r.Cost = -1 })},
	}
	for _, tc := range cases {
		data := t.TempDir()
		writeRecord(t, data, tc.dir, tc.body)
		err := New(Config{DataDir: data}).Start()
		var corrupt *CorruptRecordError
		if !errors.As(err, &corrupt) {
			t.Errorf("%s: Start returned %v, want a *CorruptRecordError", tc.name, err)
			continue
		}
		if want := filepath.Join(data, tc.dir, recordFile); corrupt.Path != want {
			t.Errorf("%s: error names %s, want %s", tc.name, corrupt.Path, want)
		}
	}

	// The unedited record loads.
	data := t.TempDir()
	writeRecord(t, data, fuzzID, edit(func(*Record) {}))
	if _, err := (journal{dir: data}).load(fuzzID); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
}

// FuzzJournalRecord writes arbitrary bytes as a campaign's journaled
// record. load must not panic. It either rejects the record with a
// *CorruptRecordError, or accepts one that saves and loads back to the
// same record.
func FuzzJournalRecord(f *testing.F) {
	running := journaledRecord()
	running.State, running.Resumes = StateRunning, 2
	running.Entries[0] = EntryProgress{Key: running.Entries[0].Key, State: EntryDone, Reused: true}
	adaptive := journaledRecord()
	adaptive.Spec.Manifest.Analyses[0].TargetWidth = 1e-6
	adaptive.Spec.Manifest.Analyses[0].Sampling = "stratified"
	for _, seed := range [][]byte{
		mustMarshal(f, journaledRecord()),
		mustMarshal(f, running),
		mustMarshal(f, adaptive),
		[]byte(`{"id":"c00000001","seq":1,"spec":{"tenant":"a"},"state":"queued"}`),
		[]byte(`{"id":"c00000002"}`),
		[]byte(`null`),
		[]byte(`{`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		data := t.TempDir()
		writeRecord(t, data, fuzzID, body)
		rec, err := journal{dir: data}.load(fuzzID)
		if err != nil {
			var corrupt *CorruptRecordError
			if !errors.As(err, &corrupt) {
				t.Fatalf("load rejected the record with %T %v, want a *CorruptRecordError", err, err)
			}
			return
		}
		again := journal{dir: t.TempDir()}
		if err := again.save(rec); err != nil {
			t.Fatalf("saving an accepted record: %v", err)
		}
		back, err := again.load(fuzzID)
		if err != nil {
			t.Fatalf("an accepted record no longer loads once saved: %v", err)
		}
		if a, b := mustMarshal(t, rec), mustMarshal(t, back); !bytes.Equal(a, b) {
			t.Fatalf("save → load changed the record:\n%s\n%s", a, b)
		}
	})
}
