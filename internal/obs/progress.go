package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress reports campaign completion (done/total, rate, ETA) to a
// writer. Totals may grow as a campaign discovers work (resume skips
// entries), so AddTotal is incremental; ETA is computed against the total
// known so far. A nil *Progress silences everything.
type Progress struct {
	mu      sync.Mutex
	w       io.Writer
	label   string
	total   int64
	done    int64
	started time.Time
	last    time.Time
	// every throttles run-completion lines; Logf lines always print.
	every time.Duration
	now   func() time.Time // test seam
}

// NewProgress builds a reporter writing to w. A nil writer yields a nil
// (silent) reporter. Run-completion lines are throttled to one per
// interval (default 1s when zero); milestone lines via Logf always print.
func NewProgress(w io.Writer, label string, every time.Duration) *Progress {
	if w == nil {
		return nil
	}
	if every <= 0 {
		every = time.Second
	}
	now := time.Now
	return &Progress{w: w, label: label, every: every, started: now(), now: now}
}

// AddTotal announces n more units of expected work.
func (p *Progress) AddTotal(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.total += int64(n)
	p.mu.Unlock()
}

// Done records n completed units and prints a throttled progress line.
func (p *Progress) Done(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done += int64(n)
	now := p.now()
	if now.Sub(p.last) < p.every && p.done < p.total {
		return
	}
	p.last = now
	p.report(now)
}

// report prints one progress line; the caller holds the lock.
func (p *Progress) report(now time.Time) {
	elapsed := now.Sub(p.started).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(p.done) / elapsed
	}
	line := fmt.Sprintf("%s: %d", p.label, p.done)
	if p.total > 0 {
		line = fmt.Sprintf("%s: %d/%d (%.1f%%)", p.label, p.done, p.total,
			100*float64(p.done)/float64(p.total))
	}
	if rate > 0 {
		line += fmt.Sprintf(" %.1f/s", rate)
		if remaining := p.total - p.done; remaining > 0 {
			eta := time.Duration(float64(remaining) / rate * float64(time.Second)).
				Round(100 * time.Millisecond)
			line += fmt.Sprintf(" ETA %s", eta)
		}
	}
	fmt.Fprintln(p.w, line)
}

// Logf prints a milestone line (never throttled), e.g. "simulating X".
func (p *Progress) Logf(format string, args ...any) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, format+"\n", args...)
}

// Finish prints a final summary line with the overall rate.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	elapsed := now.Sub(p.started).Round(time.Millisecond)
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(p.done) / secs
	}
	fmt.Fprintf(p.w, "%s: finished %d in %s (%.1f/s)\n", p.label, p.done, elapsed, rate)
}

// Counts returns (done, total) for tests and wrappers.
func (p *Progress) Counts() (done, total int64) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done, p.total
}
