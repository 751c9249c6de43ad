package campaignd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/popcache"
)

// Config tunes the Service: where it journals, what it runs on and how
// it schedules. No field changes a campaign's report, which depends on
// its manifest alone. Zero values select sane defaults.
type Config struct {
	// DataDir is the journal root: one subdirectory per campaign holding
	// its record, populations and report.
	DataDir string
	// Workers are spaworker addresses shared by every campaign; empty
	// runs everything in-process (still through the shared coordinator,
	// so the parallelism bound and cancellation behave identically).
	Workers []string
	// Parallelism bounds in-process simulations (0 = GOMAXPROCS).
	Parallelism int
	// MaxRunning bounds concurrently executing campaigns across all
	// tenants (default 4).
	MaxRunning int
	// TenantRunningCap bounds concurrently executing campaigns per
	// tenant (default 2).
	TenantRunningCap int
	// TenantQueueCap bounds queued (not yet running) campaigns per
	// tenant; submissions beyond it are rejected with ErrOverloaded
	// (default 16).
	TenantQueueCap int
	// MaxQueued bounds queued campaigns across all tenants (default 256).
	MaxQueued int
	// Quantum is the DRR credit per rotation in simulated runs
	// (default 256).
	Quantum int
	// PopCache, when non-nil, is shared across every campaign.
	PopCache *popcache.Cache
	// Dial optionally replaces the coordinator's dialer — the seam tests
	// and benchmarks use to inject faults or count connections.
	Dial dist.DialFunc
	// Obs receives service metrics and spans; nil disables.
	Obs *obs.Observer
}

func (c *Config) maxRunning() int {
	if c.MaxRunning <= 0 {
		return 4
	}
	return c.MaxRunning
}

func (c *Config) tenantQueueCap() int {
	if c.TenantQueueCap <= 0 {
		return 16
	}
	return c.TenantQueueCap
}

func (c *Config) maxQueued() int {
	if c.MaxQueued <= 0 {
		return 256
	}
	return c.MaxQueued
}

// Rejection reasons, used as the {reason} label on
// spa_campaignd_rejected_total and in HTTP 429 bodies.
const (
	ReasonQueueFull  = "queue_full"  // tenant queue-depth cap
	ReasonServerFull = "server_full" // global queued cap
	ReasonDraining   = "draining"    // server shutting down
)

// ErrOverloaded is an admission-control rejection; the HTTP layer maps
// it to 429 (503 when draining).
type ErrOverloaded struct {
	Reason string
	Msg    string
}

func (e *ErrOverloaded) Error() string { return e.Msg }

// ErrNotFound reports an unknown campaign ID (HTTP 404).
var ErrNotFound = errors.New("campaignd: no such campaign")

// ErrTerminal reports an operation on a campaign that already reached a
// terminal state (HTTP 409).
var ErrTerminal = errors.New("campaignd: campaign already finished")

// errCancelled/errDraining are cancellation causes: they distinguish a
// tenant's DELETE (terminal) from a server drain (requeue for resume).
var (
	errCancelled = errors.New("campaignd: cancelled by tenant")
	errDraining  = errors.New("campaignd: server draining")
)

// campaign is the in-memory wrapper around a journaled Record.
type campaign struct {
	rec *Record
	// cancel is non-nil while the campaign executes.
	cancel context.CancelCauseFunc
}

// Service is the campaign service: admission, fair-share scheduling,
// execution over one shared coordinator, journaling, and resume.
type Service struct {
	cfg     Config
	obs     *obs.Observer
	journal journal
	src     *popcache.Source // the shared popcache and coordinator

	mu        sync.Mutex
	campaigns map[string]*campaign
	sched     *scheduler
	nextSeq   uint64
	queued    int // queued campaigns across tenants
	running   int // executing campaigns across tenants
	draining  bool

	wg sync.WaitGroup // one per executing campaign goroutine
}

// New builds a Service (no IO yet; Start scans the journal).
func New(cfg Config) *Service {
	return &Service{
		cfg:     cfg,
		obs:     cfg.Obs,
		journal: journal{dir: cfg.DataDir},
		src: &popcache.Source{Cache: cfg.PopCache, Obs: cfg.Obs,
			Coord: &dist.Coordinator{Workers: cfg.Workers, Parallelism: cfg.Parallelism, Obs: cfg.Obs, Dial: cfg.Dial}},
		campaigns: make(map[string]*campaign),
		sched:     newScheduler(cfg.Quantum, cfg.TenantRunningCap),
		nextSeq:   1,
	}
}

// Coordinator exposes the shared coordinator (the /statusz source).
func (s *Service) Coordinator() *dist.Coordinator { return s.src.Coord }

// Start replays the journal and begins scheduling: terminal campaigns
// are loaded for status/report serving, queued ones re-enter their
// tenant queues in admission order, and campaigns that were running when
// the previous process died are requeued — their populations are already
// on disk, so the runner resumes them entry by entry. A record that does
// not decode or check fails Start with a *CorruptRecordError naming its
// file, before anything is scheduled.
func (s *Service) Start() error {
	if s.cfg.DataDir == "" {
		return errors.New("campaignd: config needs a data directory")
	}
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return err
	}
	recs, err := s.journal.scan()
	if err != nil {
		return err
	}
	s.mu.Lock()
	for _, rec := range recs {
		if rec.Seq >= s.nextSeq {
			s.nextSeq = rec.Seq + 1
		}
		c := &campaign{rec: rec}
		s.campaigns[rec.ID] = c
		switch rec.State {
		case StateRunning:
			// The previous process died (or drained) mid-run: requeue.
			rec.State = StateQueued
			rec.Resumes++
			rec.resetProgress()
			if err := s.journal.save(rec); err != nil {
				s.mu.Unlock()
				return err
			}
			s.obs.M().CounterL(obs.MetricCampaignResumed, obs.Labels{"tenant": rec.Spec.Tenant}).Inc()
			fallthrough
		case StateQueued:
			s.sched.enqueue(rec)
			s.queued++
		}
		s.refreshTenantGauges(rec.Spec.Tenant)
	}
	s.mu.Unlock()
	s.obs.Logf("campaignd: journal replayed: %d campaigns (%d queued)", len(recs), s.queued)
	s.schedule()
	return nil
}

// Submit admission-controls and enqueues one campaign, returning its ID.
func (s *Service) Submit(spec Spec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected(spec.Tenant, ReasonDraining)
		return "", &ErrOverloaded{Reason: ReasonDraining, Msg: "campaignd: server is draining"}
	}
	if s.queued >= s.cfg.maxQueued() {
		s.mu.Unlock()
		s.rejected(spec.Tenant, ReasonServerFull)
		return "", &ErrOverloaded{Reason: ReasonServerFull,
			Msg: fmt.Sprintf("campaignd: %d campaigns queued server-wide (cap %d)", s.queued, s.cfg.maxQueued())}
	}
	if depth := s.sched.queueDepth(spec.Tenant); depth >= s.cfg.tenantQueueCap() {
		s.mu.Unlock()
		s.rejected(spec.Tenant, ReasonQueueFull)
		return "", &ErrOverloaded{Reason: ReasonQueueFull,
			Msg: fmt.Sprintf("campaignd: tenant %s has %d campaigns queued (cap %d)", spec.Tenant, depth, s.cfg.tenantQueueCap())}
	}
	seq := s.nextSeq
	s.nextSeq++
	id := fmt.Sprintf("c%08d", seq)
	rec := newRecord(id, seq, spec, time.Now().UnixMilli())
	if err := s.journal.save(rec); err != nil {
		s.nextSeq-- // nothing was admitted
		s.mu.Unlock()
		return "", err
	}
	s.campaigns[id] = &campaign{rec: rec}
	s.sched.enqueue(rec)
	s.queued++
	s.obs.M().CounterL(obs.MetricCampaignSubmitted, obs.Labels{"tenant": spec.Tenant}).Inc()
	s.refreshTenantGauges(spec.Tenant)
	s.mu.Unlock()
	s.obs.T().Event("campaignd.submitted", obs.Str("id", id), obs.Str("tenant", spec.Tenant),
		obs.Int("cost", rec.Cost), obs.Int("weight", rec.Weight))
	s.schedule()
	return id, nil
}

func (s *Service) rejected(tenant, reason string) {
	s.obs.M().CounterL(obs.MetricCampaignRejected, obs.Labels{"tenant": tenant, "reason": reason}).Inc()
}

// refreshTenantGauges re-derives the per-tenant queue/running gauges;
// callers hold mu.
func (s *Service) refreshTenantGauges(tenant string) {
	l := obs.Labels{"tenant": tenant}
	s.obs.M().GaugeL(obs.MetricCampaignQueueDepth, l).Set(float64(s.sched.queueDepth(tenant)))
	s.obs.M().GaugeL(obs.MetricCampaignRunning, l).Set(float64(s.sched.runningCount(tenant)))
}

// schedule runs one DRR pass, launching every campaign it picks.
func (s *Service) schedule() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scheduleLocked()
}

func (s *Service) scheduleLocked() {
	if s.draining {
		return
	}
	s.obs.M().Counter(obs.MetricCampaignSchedPasses).Inc()
	picks := s.sched.next(s.cfg.maxRunning() - s.running)
	for _, rec := range picks {
		c := s.campaigns[rec.ID]
		rec.State = StateRunning
		rec.StartedUnixMS = time.Now().UnixMilli()
		rec.resetProgress()
		s.queued--
		s.running++
		if err := s.journal.save(rec); err != nil {
			// Journal IO failing is a server-level problem; fail the
			// campaign rather than run it unjournaled (resume would
			// otherwise report a stale queued state forever).
			s.finishLocked(c, StateFailed, err)
			continue
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		c.cancel = cancel
		s.refreshTenantGauges(rec.Spec.Tenant)
		s.obs.T().Event("campaignd.started", obs.Str("id", rec.ID), obs.Str("tenant", rec.Spec.Tenant))
		s.wg.Add(1)
		go s.execute(ctx, c)
	}
}

// execute runs one campaign to completion on its own goroutine.
func (s *Service) execute(ctx context.Context, c *campaign) {
	defer s.wg.Done()
	rec := c.rec
	runner := &manifest.Runner{
		OutDir:      s.journal.campaignDir(rec.ID),
		Parallelism: s.cfg.Parallelism,
		Obs:         s.obs,
		Source:      s.src,
		Hooks: manifest.Hooks{
			OnEntryStart: func(idx int, key string) {
				s.entryTransition(rec, idx, EntryRunning, false, nil)
			},
			OnEntryDone: func(idx int, key string, reused bool, err error) {
				state := EntryDone
				if err != nil {
					state = EntryFailed
				} else {
					s.obs.M().CounterL(obs.MetricCampaignEntriesDone, obs.Labels{"tenant": rec.Spec.Tenant}).Inc()
				}
				s.entryTransition(rec, idx, state, reused, err)
			},
			OnConvergenceRound: func(round manifest.ConvergenceRound) {
				s.mu.Lock()
				rec.Rounds = append(rec.Rounds, round)
				s.mu.Unlock()
			},
		},
	}
	_, err := runner.RunContext(ctx, rec.Spec.Manifest)

	s.mu.Lock()
	defer s.mu.Unlock()
	c.cancel = nil
	switch cause := context.Cause(ctx); {
	case err == nil:
		s.finishLocked(c, StateDone, nil)
	case errors.Is(cause, errCancelled):
		s.finishLocked(c, StateCancelled, errCancelled)
	case errors.Is(cause, errDraining):
		// Not terminal: back to the queue, journaled, so the next process
		// resumes it from the populations already on disk.
		rec.State = StateQueued
		rec.Resumes++
		rec.Error = ""
		if jerr := s.journal.save(rec); jerr != nil {
			s.obs.Logf("campaignd: journaling drained campaign %s: %v", rec.ID, jerr)
		}
		s.running--
		s.queued++
		s.sched.finished(rec.Spec.Tenant)
		s.sched.enqueue(rec)
		s.refreshTenantGauges(rec.Spec.Tenant)
		s.obs.T().Event("campaignd.requeued", obs.Str("id", rec.ID), obs.Str("tenant", rec.Spec.Tenant))
	default:
		s.finishLocked(c, StateFailed, err)
	}
	s.scheduleLocked()
}

// finishLocked journals a terminal transition and frees the running
// slot; callers hold mu and have already accounted the campaign as
// running.
func (s *Service) finishLocked(c *campaign, state State, err error) {
	rec := c.rec
	rec.State = state
	rec.FinishedUnixMS = time.Now().UnixMilli()
	if err != nil {
		rec.Error = err.Error()
	}
	if jerr := s.journal.save(rec); jerr != nil {
		s.obs.Logf("campaignd: journaling %s campaign %s: %v", state, rec.ID, jerr)
	}
	s.running--
	s.sched.finished(rec.Spec.Tenant)
	s.refreshTenantGauges(rec.Spec.Tenant)
	s.obs.M().CounterL(obs.MetricCampaignDone, obs.Labels{"tenant": rec.Spec.Tenant, "state": string(state)}).Inc()
	s.obs.T().Event("campaignd.finished", obs.Str("id", rec.ID),
		obs.Str("tenant", rec.Spec.Tenant), obs.Str("state", string(state)))
}

// entryTransition journals one entry's progress change.
func (s *Service) entryTransition(rec *Record, idx int, state string, reused bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx < 0 || idx >= len(rec.Entries) {
		return
	}
	rec.Entries[idx].State = state
	rec.Entries[idx].Reused = reused
	if err != nil {
		rec.Entries[idx].Error = err.Error()
	}
	if jerr := s.journal.save(rec); jerr != nil {
		s.obs.Logf("campaignd: journaling entry progress for %s: %v", rec.ID, jerr)
	}
}

// Cancel cancels a campaign: a queued one is finished immediately, a
// running one is cancelled cooperatively (its goroutine journals the
// terminal state when the runner unwinds).
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return ErrNotFound
	}
	rec := c.rec
	switch rec.State {
	case StateQueued:
		s.sched.remove(id)
		s.queued--
		rec.State = StateCancelled
		rec.FinishedUnixMS = time.Now().UnixMilli()
		if err := s.journal.save(rec); err != nil {
			return err
		}
		s.obs.M().CounterL(obs.MetricCampaignDone, obs.Labels{"tenant": rec.Spec.Tenant, "state": string(StateCancelled)}).Inc()
		s.refreshTenantGauges(rec.Spec.Tenant)
		return nil
	case StateRunning:
		if c.cancel != nil {
			c.cancel(errCancelled)
		}
		return nil
	default:
		return ErrTerminal
	}
}

// Get returns a deep-enough copy of a campaign's record for serializing
// without racing the runner's hooks.
func (s *Service) Get(id string) (*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return nil, ErrNotFound
	}
	return snapshotRecord(c.rec), nil
}

// snapshotRecord copies the mutable slices; Spec (immutable after
// admission) is shared.
func snapshotRecord(rec *Record) *Record {
	cp := *rec
	cp.Entries = append([]EntryProgress(nil), rec.Entries...)
	cp.Rounds = append([]manifest.ConvergenceRound(nil), rec.Rounds...)
	return &cp
}

// ReportPath returns the campaign's report file, or ErrNotFound /
// ErrNotReady when the campaign is unknown or not done.
func (s *Service) ReportPath(id string) (string, error) {
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		return "", ErrNotFound
	}
	if c.rec.State != StateDone {
		return "", fmt.Errorf("campaignd: campaign %s is %s, report exists only when done", id, c.rec.State)
	}
	return c.rec.Spec.Manifest.ReportPath(s.journal.campaignDir(id)), nil
}

// List returns every known campaign's record snapshot, newest first.
func (s *Service) List() []*Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Record, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		out = append(out, snapshotRecord(c.rec))
	}
	sortRecords(out)
	return out
}

// sortRecords orders newest-first by admission sequence.
func sortRecords(recs []*Record) {
	sort.Slice(recs, func(a, b int) bool { return recs[a].Seq > recs[b].Seq })
}

// QueueStatus is the /v1/queue (and /statusz scheduler) snapshot.
type QueueStatus struct {
	Draining   bool           `json:"draining,omitempty"`
	Queued     int            `json:"queued"`
	Running    int            `json:"running"`
	MaxRunning int            `json:"max_running"`
	Tenants    []TenantStatus `json:"tenants,omitempty"`
}

// Queue snapshots the scheduler.
func (s *Service) Queue() QueueStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return QueueStatus{
		Draining:   s.draining,
		Queued:     s.queued,
		Running:    s.running,
		MaxRunning: s.cfg.maxRunning(),
		Tenants:    s.sched.snapshot(),
	}
}

// Status is the full /statusz source: scheduler plus coordinator.
func (s *Service) Status() any {
	return struct {
		Queue QueueStatus            `json:"queue"`
		Coord dist.CoordinatorStatus `json:"coordinator"`
	}{s.Queue(), s.src.Coord.Status()}
}

// Drain gracefully shuts the service down: admission closes, every
// running campaign is cancelled with the draining cause (so it journals
// itself back to queued for the next process), and Drain returns when
// the campaign goroutines have unwound or the timeout expires.
func (s *Service) Drain(timeout time.Duration) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	for _, c := range s.campaigns {
		if c.rec.State == StateRunning && c.cancel != nil {
			c.cancel(errDraining)
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.obs.Logf("campaignd: drain timed out after %s with campaigns still unwinding", timeout)
	}
}
