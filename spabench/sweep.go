package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaignd"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/popcache"
	"repro/internal/sim"
)

// spad-sweep: a design-space sweep against the campaign service on
// loopback, as spad composes it. Two equal-priority tenants each keep two
// campaigns outstanding over one client connection; MaxRunning is below
// the outstanding total, so the DRR scheduler picks who runs next. Every
// campaign asks a fixed and a stratified adaptive question of the shared
// baseline — one profile across its L2 variants, served by a popcache
// pre-warmed in set-up — and of one variant whose run count, and with it
// its population recipe, is unique to the campaign. Admission, scheduling,
// journaling, popcache reads and the sampling cache-replay path carry a
// large share of the work; the fresh populations are the simulation.
const (
	sweepProfile     = "dedup"
	sweepScale       = 0.05
	sweepBaseRuns    = 48 // the shared baseline populations; above every fresh size
	sweepFreshRuns   = 5  // campaign k's fresh population has sweepFreshRuns + k/3 runs
	sweepCampaigns   = 100
	sweepTenants     = 2
	sweepOutstanding = 2 // per tenant
	sweepMaxRunning  = 2
	sweepParallelism = 2
	sweepPoll        = 10 * time.Millisecond
	sweepDeadline    = 2 * time.Minute // a sweep still running after this has failed
	sweepWidth       = 6e-7
	sweepGrow        = 100
)

var sweepVariants = []string{"default", "l2half", "l2double"}

// sweepManifest is campaign k; k < 0 is the baseline the set-up pre-warms.
func sweepManifest(seed uint64, k int) *manifest.Manifest {
	m := &manifest.Manifest{Seed: manifestSeed(seed, 8), Scale: sweepScale, Runs: sweepBaseRuns,
		Analyses: []manifest.Analysis{
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9},
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9, TargetWidth: sweepWidth, GrowBatch: sweepGrow, Sampling: "stratified"},
		}}
	for _, v := range sweepVariants {
		m.Entries = append(m.Entries, manifest.Entry{Benchmark: sweepProfile, Variant: v})
	}
	if k < 0 {
		m.Name = "sweep-baseline"
		return m
	}
	m.Name = fmt.Sprintf("sweep-%03d", k)
	m.Entries[k%len(sweepVariants)].Runs = sweepFreshRuns + k/len(sweepVariants)
	return m
}

type sweep struct {
	dir       string
	specs     [][]campaignd.SubmitRequest // per tenant, in submission order
	cache     *popcache.Cache
	svc       *campaignd.Service
	srv       *http.Server
	serveDone chan struct{}
	url       string
	dials     *dialCounter  // the service coordinator's dialer
	traceBuf  *bytes.Buffer // the service's in-memory trace sink when traced
}

func setupSweep(dir string, seed uint64, tr *tracer) (instance, error) {
	s := &sweep{dir: dir, specs: make([][]campaignd.SubmitRequest, sweepTenants)}
	for k := 0; k < sweepCampaigns; k++ {
		m := sweepManifest(seed, k)
		if err := m.Validate(); err != nil {
			return nil, err
		}
		t := k % sweepTenants
		s.specs[t] = append(s.specs[t], campaignd.SubmitRequest{Tenant: fmt.Sprintf("tenant%d", t), Manifest: m})
	}
	cacheDir := filepath.Join(dir, "popcache")
	warm := &manifest.Runner{OutDir: filepath.Join(dir, "prewarm"), Parallelism: sweepParallelism,
		PopCache: popcache.New(cacheDir, 0)}
	if _, err := warm.Run(sweepManifest(seed, -1)); err != nil {
		return nil, fmt.Errorf("pre-warming the popcache: %w", err)
	}
	s.cache = popcache.New(cacheDir, 0)
	cfg := campaignd.Config{DataDir: filepath.Join(dir, "data"), Parallelism: sweepParallelism,
		MaxRunning: sweepMaxRunning, PopCache: s.cache}
	s.dials = &dialCounter{}
	var o *obs.Observer
	if tr != nil {
		s.traceBuf = &bytes.Buffer{}
		o = &obs.Observer{Tracer: obs.NewTracer(s.traceBuf), Metrics: obs.NewRegistry()}
		cfg.Obs, s.dials.next = o, tr.dial
	}
	cfg.Dial = s.dials.dial
	s.svc = campaignd.New(cfg)
	if err := s.svc.Start(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Drain(time.Minute)
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: campaignd.NewHandler(s.svc, o)}
	s.serveDone = make(chan struct{})
	go func() {
		defer close(s.serveDone)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "spabench: spad:", err)
		}
	}()
	return s, nil
}

func (s *sweep) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		// The clients have finished, so the server is idle; a Shutdown
		// error could only be the deadline, and Serve returns either way.
		_ = s.srv.Shutdown(ctx)
		<-s.serveDone
	}
	s.svc.Drain(time.Minute)
}

// finished is one campaign as the client saw it end.
type finished struct {
	tenant int
	rec    campaignd.Record
	report []byte
}

// tenantLog is one tenant client's outcome.
type tenantLog struct {
	done     []finished
	httpMS   []float64
	rejected int
	ops      int
	failures []string
}

func (s *sweep) run(tr *tracer) (*outcome, error) {
	logs := make([]*tenantLog, sweepTenants)
	var wg sync.WaitGroup
	for t := range s.specs {
		logs[t] = &tenantLog{}
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			s.client(t, logs[t])
		}(t)
	}
	wg.Wait()

	out := &outcome{
		counts: map[string]int64{"sim_runs": int64(s.svc.Coordinator().Status().Runs)},
		bypass: map[string]int64{"dist.dials": s.dials.n.Load()},
	}
	var all []finished
	for _, l := range logs {
		out.ops += l.ops
		out.failures = append(out.failures, l.failures...)
		all = append(all, l.done...)
	}
	for _, f := range all {
		out.reports = append(out.reports, namedReport{f.rec.Spec.Manifest.Name, f.report})
	}
	if tr != nil {
		if err := s.layers(tr, logs, all); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// client is one tenant's closed loop over its own connection: keep
// sweepOutstanding campaigns submitted, poll them, fetch each report when
// its campaign ends, submit the next.
func (s *sweep) client(t int, l *tenantLog) {
	hc := &http.Client{Timeout: time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(sweepDeadline)
	next := 0
	var open []string
	for next < len(s.specs[t]) || len(open) > 0 {
		if time.Now().After(deadline) {
			for _, id := range open {
				l.ops++
				l.failures = append(l.failures, fmt.Sprintf("campaign %s still running after %s", id, sweepDeadline))
			}
			return
		}
		for len(open) < sweepOutstanding && next < len(s.specs[t]) {
			l.ops++
			id, code, err := s.submit(hc, l, s.specs[t][next])
			next++
			switch {
			case err != nil:
				l.failures = append(l.failures, fmt.Sprintf("tenant%d submit: %v", t, err))
			case code != http.StatusAccepted:
				if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
					l.rejected++
				}
				l.failures = append(l.failures, fmt.Sprintf("tenant%d submit: HTTP %d", t, code))
			default:
				open = append(open, id)
			}
		}
		time.Sleep(sweepPoll)
		still := open[:0]
		for _, id := range open {
			var rec campaignd.Record
			if err := s.get(hc, l, "/v1/campaigns/"+id, &rec, nil); err != nil {
				l.ops++
				l.failures = append(l.failures, fmt.Sprintf("campaign %s: %v", id, err))
				continue
			}
			if !rec.State.Terminal() {
				still = append(still, id)
				continue
			}
			l.ops++
			if rec.State != campaignd.StateDone {
				l.failures = append(l.failures, fmt.Sprintf("campaign %s %s: %s", id, rec.State, rec.Error))
				continue
			}
			var body []byte
			if err := s.get(hc, l, "/v1/campaigns/"+id+"/report", nil, &body); err != nil {
				l.failures = append(l.failures, fmt.Sprintf("campaign %s report: %v", id, err))
				continue
			}
			l.done = append(l.done, finished{tenant: t, rec: rec, report: body})
		}
		open = still
	}
}

func (s *sweep) submit(hc *http.Client, l *tenantLog, req campaignd.SubmitRequest) (string, int, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	resp, err := hc.Post(s.url+"/v1/campaigns", "application/json", bytes.NewReader(data))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var sr campaignd.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	l.httpMS = append(l.httpMS, float64(time.Since(t0))/1e6)
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode, nil
	}
	return sr.ID, resp.StatusCode, err
}

// get fetches path, decoding JSON into v or keeping the raw body in raw.
func (s *sweep) get(hc *http.Client, l *tenantLog, path string, v any, raw *[]byte) error {
	t0 := time.Now()
	resp, err := hc.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	l.httpMS = append(l.httpMS, float64(time.Since(t0))/1e6)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if raw != nil {
		*raw = body
		return nil
	}
	return json.Unmarshal(body, v)
}

// turnaround is a campaign's journaled submit-to-finish time in seconds.
func turnaround(r campaignd.Record) float64 {
	return float64(r.FinishedUnixMS-r.SubmittedUnixMS) / 1e3
}

// layers derives the sweep's per-layer metrics from the journaled records,
// the client timings, the popcache and coordinator snapshots, and the
// service's own trace of simulator runs.
func (s *sweep) layers(tr *tracer, logs []*tenantLog, all []finished) error {
	sc := bufio.NewScanner(bytes.NewReader(s.traceBuf.Bytes()))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var rec struct {
			Name  string `json:"name"`
			DurUS int64  `json:"dur_us"`
			Attrs struct {
				Cycles uint64 `json:"cycles"`
			} `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("service trace: %w", err)
		}
		if rec.Name == "sim.run" {
			tr.simRun(time.Duration(rec.DurUS)*time.Microsecond, rec.Attrs.Cycles)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	tr.simLayer()

	var lat, wait, exec, httpMS []float64
	perTenant := make([][]float64, sweepTenants)
	var rounds, pilots, rejected int64
	for _, f := range all {
		r := f.rec
		lat = append(lat, turnaround(r))
		perTenant[f.tenant] = append(perTenant[f.tenant], turnaround(r))
		wait = append(wait, float64(r.StartedUnixMS-r.SubmittedUnixMS))
		exec = append(exec, float64(r.FinishedUnixMS-r.StartedUnixMS))
		rounds += int64(len(r.Rounds))
		var rep manifest.Report
		if err := json.Unmarshal(f.report, &rep); err == nil {
			for _, res := range rep.Results {
				pilots += int64(res.PilotRuns)
			}
		}
	}
	for _, l := range logs {
		httpMS = append(httpMS, l.httpMS...)
		rejected += int64(l.rejected)
	}
	tr.set("campaignd.latency_p50_s", quantile(lat, 0.5))
	tr.set("campaignd.latency_p90_s", quantile(lat, 0.9))
	tr.set("campaignd.queue_wait_ms_p50", quantile(wait, 0.5))
	tr.set("campaignd.exec_ms_p50", quantile(exec, 0.5))
	tr.set("campaignd.exec_ms_p90", quantile(exec, 0.9))
	tr.set("campaignd.http_ms_p50", quantile(httpMS, 0.5))
	lo, hi := 0.0, 0.0
	for i, ts := range perTenant {
		m := median(ts)
		if i == 0 || m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if lo > 0 {
		tr.set("campaignd.fairness_ratio", hi/lo)
	}
	tr.count("campaignd.rejected", rejected)
	tr.count("core.rounds", rounds)
	tr.count("sampling.pilot_runs", pilots)

	st := s.cache.Stats()
	lookups := st.MemHits + st.DiskHits + st.Misses
	tr.count("popcache.lookups", int64(lookups))
	tr.set("popcache.mem_hits", float64(st.MemHits))
	tr.set("popcache.disk_hits", float64(st.DiskHits))
	tr.count("popcache.misses", int64(st.Misses))
	if lookups > 0 {
		tr.set("popcache.hit_ratio", float64(st.MemHits+st.DiskHits)/float64(lookups))
	}
	cs := s.svc.Coordinator().Status()
	tr.count("dist.jobs", int64(cs.JobsStarted))
	tr.set("dist.chunks", float64(cs.Chunks))
	if cs.Chunks > 0 {
		tr.set("dist.runs_per_chunk", float64(cs.Runs)/float64(cs.Chunks))
	}
	tr.count("dist.redispatches", int64(cs.Redispatches))
	tr.set("dist.local_chunks", float64(cs.LocalChunks))

	var written int64
	err := filepath.WalkDir(filepath.Join(s.dir, "data"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			written += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	tr.set("manifest.bytes_written", float64(written))
	return nil
}
