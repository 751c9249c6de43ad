package campaignd

import (
	"fmt"

	"repro/internal/manifest"
)

// State is a campaign's position in the service state machine.
//
//	queued ──► running ──► done
//	  │           │  ├───► failed
//	  │           │  └───► cancelled
//	  │           └──────► queued      (drain/crash: requeued for resume)
//	  └──────────────────► cancelled
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state has no outgoing transitions.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Entry-progress states. Distinct from campaign State: an entry is
// pending until the runner reaches it, then running/done/failed.
const (
	EntryPending = "pending"
	EntryRunning = "running"
	EntryDone    = "done"
	EntryFailed  = "failed"
)

// EntryProgress is one manifest entry's journaled progress row.
type EntryProgress struct {
	Key   string `json:"key"`
	State string `json:"state"`
	// Reused marks the resume/popcache path: the population came off
	// disk instead of being re-simulated.
	Reused bool   `json:"reused,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Record is the journaled campaign: everything a restarted server needs
// to resume it, and everything the status endpoint reports. It is
// persisted as campaign.json in the campaign's directory on every state
// transition (campaign-level and entry-level).
type Record struct {
	ID string `json:"id"`
	// Seq is the admission sequence number; restarts rebuild tenant FIFO
	// order from it.
	Seq  uint64 `json:"seq"`
	Spec Spec   `json:"spec"`
	// Cost and Weight are frozen at admission so scheduling is stable
	// across restarts even if defaulting rules evolve.
	Cost   int    `json:"cost"`
	Weight int    `json:"weight"`
	State  State  `json:"state"`
	Error  string `json:"error,omitempty"`
	// Entries is per-entry progress, index-aligned with the manifest.
	Entries []EntryProgress `json:"entries"`
	// Rounds is the live adaptive-convergence trajectory of the current
	// (or final) execution — the PR 6 telemetry, surfaced per campaign.
	// Journaled on entry boundaries; a resume rebuilds it exactly, since
	// adaptive collection is deterministic in the manifest seed.
	Rounds []manifest.ConvergenceRound `json:"rounds,omitempty"`
	// Resumes counts how many times the campaign was re-queued after a
	// drain or crash.
	Resumes int `json:"resumes,omitempty"`

	SubmittedUnixMS int64 `json:"submitted_unix_ms,omitempty"`
	StartedUnixMS   int64 `json:"started_unix_ms,omitempty"`
	FinishedUnixMS  int64 `json:"finished_unix_ms,omitempty"`
}

// newRecord builds the queued-state record for an admitted spec.
func newRecord(id string, seq uint64, spec Spec, nowMS int64) *Record {
	rec := &Record{
		ID: id, Seq: seq, Spec: spec,
		Cost: spec.Cost(), Weight: spec.Weight(),
		State:           StateQueued,
		SubmittedUnixMS: nowMS,
	}
	rec.Entries = make([]EntryProgress, len(spec.Manifest.Entries))
	for i, e := range spec.Manifest.Entries {
		rec.Entries[i] = EntryProgress{Key: e.Key(), State: EntryPending}
	}
	return rec
}

// check verifies what admission guaranteed of a record read back from
// directory dir: it names that directory, carries a valid spec, is in a
// known state, has one progress row per manifest entry, and has the
// weight and cost Submit could have frozen.
func (r *Record) check(dir string) error {
	if r.ID != dir {
		return fmt.Errorf("id %q in directory %q", r.ID, dir)
	}
	if err := r.Spec.Validate(); err != nil {
		return err
	}
	switch r.State {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
	default:
		return fmt.Errorf("unknown state %q", r.State)
	}
	if len(r.Entries) != len(r.Spec.Manifest.Entries) {
		return fmt.Errorf("%d progress rows for %d manifest entries", len(r.Entries), len(r.Spec.Manifest.Entries))
	}
	if r.Weight < 1 || r.Weight > maxPriority || r.Cost < 0 {
		return fmt.Errorf("weight %d outside [1,%d] or negative cost %d", r.Weight, maxPriority, r.Cost)
	}
	return nil
}

// resetProgress rewinds per-entry progress and the convergence trace for
// a fresh (or resumed) execution; the runner's hooks repopulate both.
func (r *Record) resetProgress() {
	for i := range r.Entries {
		r.Entries[i].State = EntryPending
		r.Entries[i].Reused = false
		r.Entries[i].Error = ""
	}
	r.Rounds = nil
}
