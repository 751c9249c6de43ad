package campaignd

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/manifest"
)

// recordFile is the journal file inside each campaign directory.
const recordFile = "campaign.json"

// journal persists campaign Records, one directory per campaign under
// the service data dir:
//
//	<dir>/<id>/campaign.json        the Record (this file)
//	<dir>/<id>/<name>-<entry>.json  populations (runner resume files)
//	<dir>/<id>/<name>-report.json   the final report, adaptive analyses'
//	                                convergence rounds included
//
// Every write goes through manifest.WriteFileAtomic, so a crash mid-save
// leaves the previous consistent state, never a truncated record — the
// same guarantee the runner's population files already have, which is
// what makes kill-anywhere resume safe.
type journal struct {
	dir string
}

// campaignDir is the directory owning one campaign's record + artifacts.
func (j journal) campaignDir(id string) string {
	return filepath.Join(j.dir, id)
}

// save journals the record (creating the campaign dir on first save).
func (j journal) save(rec *Record) error {
	dir := j.campaignDir(rec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return manifest.WriteFileAtomic(filepath.Join(dir, recordFile), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(rec)
	})
}

// CorruptRecordError is a journaled record that cannot be resumed: its
// file does not decode, or the record breaks an invariant admission
// established (see Record.check). Start fails with it rather than
// schedule a campaign the runner or the scheduler cannot handle.
type CorruptRecordError struct {
	Path string
	Err  error
}

func (e *CorruptRecordError) Error() string {
	return fmt.Sprintf("campaignd: corrupt record %s: %v", e.Path, e.Err)
}

func (e *CorruptRecordError) Unwrap() error { return e.Err }

// load reads and checks the record of the campaign in directory id.
func (j journal) load(id string) (*Record, error) {
	path := filepath.Join(j.campaignDir(id), recordFile)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rec Record
	if err := json.NewDecoder(f).Decode(&rec); err != nil {
		return nil, &CorruptRecordError{Path: path, Err: err}
	}
	if err := rec.check(id); err != nil {
		return nil, &CorruptRecordError{Path: path, Err: err}
	}
	return &rec, nil
}

// scan loads every journaled campaign, ordered by admission sequence —
// the restart path. Directories without a readable record are skipped
// (a crash between MkdirAll and the first save leaves one); they carry
// no committed state.
func (j journal) scan() ([]*Record, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var recs []*Record
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rec, err := j.load(e.Name())
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Seq < recs[b].Seq })
	return recs, nil
}
