package campaignd

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/sim"
)

// testManifest is a fast campaign: nEntries swaptions variants at tiny
// scale, one SPA analysis.
func testManifest(name string, nEntries, runs int) *manifest.Manifest {
	m := &manifest.Manifest{
		Name:  name,
		Seed:  7,
		Scale: 0.05,
		Runs:  runs,
		Analyses: []manifest.Analysis{
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9},
		},
	}
	variants := []string{"", "l2half", "l2double", "hardware"}
	for i := 0; i < nEntries && i < len(variants); i++ {
		m.Entries = append(m.Entries, manifest.Entry{Benchmark: "swaptions", Variant: variants[i]})
	}
	return m
}

func startService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain(30 * time.Second) })
	return s
}

// waitTerminal polls until the campaign reaches a terminal state.
func waitTerminal(t *testing.T, s *Service, id string, timeout time.Duration) *Record {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		rec, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State.Terminal() {
			return rec
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec, _ := s.Get(id)
	t.Fatalf("campaign %s not terminal after %s (state %v)", id, timeout, rec.State)
	return nil
}

func TestServiceLifecycle(t *testing.T) {
	s := startService(t, Config{})
	id, err := s.Submit(Spec{Tenant: "acme", Manifest: testManifest("lc", 2, 24)})
	if err != nil {
		t.Fatal(err)
	}
	rec := waitTerminal(t, s, id, 30*time.Second)
	if rec.State != StateDone {
		t.Fatalf("state = %v (error %q), want done", rec.State, rec.Error)
	}
	for i, e := range rec.Entries {
		if e.State != EntryDone {
			t.Errorf("entry %d (%s) state = %s, want done", i, e.Key, e.State)
		}
	}
	if rec.StartedUnixMS == 0 || rec.FinishedUnixMS == 0 {
		t.Error("missing timestamps")
	}
	// The report exists and parses.
	path, err := s.ReportPath(id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep manifest.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Name != "lc" || len(rep.Results) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	// List knows it; the queue is empty again.
	if recs := s.List(); len(recs) != 1 || recs[0].ID != id {
		t.Fatalf("List = %+v", recs)
	}
	if q := s.Queue(); q.Queued != 0 || q.Running != 0 {
		t.Fatalf("queue not drained: %+v", q)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := startService(t, Config{})
	cases := []Spec{
		{Tenant: "Bad Tenant", Manifest: testManifest("v", 1, 8)},
		{Tenant: "ok", Priority: 99, Manifest: testManifest("v", 1, 8)},
		{Tenant: "ok"},
		{Tenant: "ok", Manifest: &manifest.Manifest{Name: "empty"}},
	}
	for i, spec := range cases {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("case %d: invalid spec admitted", i)
		}
	}
}

// Admission control: per-tenant and global queue caps reject with typed
// reasons while a long campaign holds the single running slot.
func TestAdmissionControl(t *testing.T) {
	s := startService(t, Config{
		MaxRunning:     1,
		TenantQueueCap: 2,
		MaxQueued:      3,
	})
	// Occupies the only running slot for the duration of the test.
	heavyID, err := s.Submit(Spec{Tenant: "acme", Manifest: testManifest("heavy", 2, 4000)})
	if err != nil {
		t.Fatal(err)
	}
	// Fill acme's queue.
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(Spec{Tenant: "acme", Manifest: testManifest("q", 1, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	var over *ErrOverloaded
	if _, err := s.Submit(Spec{Tenant: "acme", Manifest: testManifest("q", 1, 8)}); !errors.As(err, &over) || over.Reason != ReasonQueueFull {
		t.Fatalf("tenant overflow err = %v, want %s", err, ReasonQueueFull)
	}
	// A different tenant still gets the remaining global slot...
	otherID, err := s.Submit(Spec{Tenant: "zeta", Manifest: testManifest("q", 1, 8)})
	if err != nil {
		t.Fatal(err)
	}
	// ...and then the global cap rejects.
	if _, err := s.Submit(Spec{Tenant: "zeta", Manifest: testManifest("q", 1, 8)}); !errors.As(err, &over) || over.Reason != ReasonServerFull {
		t.Fatalf("global overflow err = %v, want %s", err, ReasonServerFull)
	}
	// Cancelling a queued campaign frees its slot immediately.
	if err := s.Cancel(otherID); err != nil {
		t.Fatal(err)
	}
	if rec, _ := s.Get(otherID); rec.State != StateCancelled {
		t.Fatalf("queued cancel state = %v", rec.State)
	}
	if _, err := s.Submit(Spec{Tenant: "zeta", Manifest: testManifest("q", 1, 8)}); err != nil {
		t.Fatalf("slot not freed after cancel: %v", err)
	}
	// Cancelling the running campaign is cooperative but prompt (chunk
	// granularity), and double-cancel of a terminal campaign is a
	// conflict.
	if err := s.Cancel(heavyID); err != nil {
		t.Fatal(err)
	}
	rec := waitTerminal(t, s, heavyID, 30*time.Second)
	if rec.State != StateCancelled {
		t.Fatalf("running cancel state = %v", rec.State)
	}
	if err := s.Cancel(heavyID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("cancel after terminal = %v, want ErrTerminal", err)
	}
	if err := s.Cancel("c99999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown = %v, want ErrNotFound", err)
	}
}

// The resume acceptance test: drain the service mid-campaign (the
// in-process equivalent of killing spad), restart on the same data dir,
// and require the final report to be byte-identical to an uninterrupted
// run of the same manifest.
func TestResumeReportByteIdentical(t *testing.T) {
	dir := t.TempDir()
	id := interruptCampaign(t, dir, testManifest("resume", 3, 150))

	// Restart: a fresh service on the same data dir resumes and finishes.
	svc2 := startService(t, Config{DataDir: dir})
	resumed := serviceReport(t, svc2, id)
	if rec, _ := svc2.Get(id); rec.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", rec.Resumes)
	}

	// Uninterrupted control run of the same manifest.
	svc3 := startService(t, Config{DataDir: t.TempDir()})
	id3, err := svc3.Submit(Spec{Tenant: "acme", Manifest: testManifest("resume", 3, 150)})
	if err != nil {
		t.Fatal(err)
	}
	if control := serviceReport(t, svc3, id3); !bytes.Equal(resumed, control) {
		t.Fatalf("resumed report differs from uninterrupted run:\nresumed:  %s\ncontrol:  %s", resumed, control)
	}
}

// Draining rejects new submissions with the draining reason.
func TestDrainRejectsSubmissions(t *testing.T) {
	s := startService(t, Config{})
	s.Drain(time.Second)
	var over *ErrOverloaded
	if _, err := s.Submit(Spec{Tenant: "acme", Manifest: testManifest("d", 1, 8)}); !errors.As(err, &over) || over.Reason != ReasonDraining {
		t.Fatalf("submit while draining = %v, want %s", err, ReasonDraining)
	}
}

func TestHTTPAPI(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	s := startService(t, Config{Obs: o})
	srv := httptest.NewServer(NewHandler(s, o))
	defer srv.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	// Bad JSON and invalid specs are 400s.
	if resp, _ := post("{nope"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", resp.StatusCode)
	}
	if resp, _ := post(`{"tenant":"NOPE","manifest":null}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec status = %d", resp.StatusCode)
	}

	// Submit a real campaign.
	mb, _ := json.Marshal(testManifest("http", 1, 16))
	resp, body := post(`{"tenant":"acme","priority":2,"manifest":` + string(mb) + `}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit response %s: %v", body, err)
	}

	waitTerminal(t, s, sub.ID, 30*time.Second)

	// Status endpoint.
	resp, body = get("/v1/campaigns/" + sub.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rec Record
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateDone || len(rec.Entries) != 1 {
		t.Fatalf("record = %+v", rec)
	}
	// Report endpoint serves the runner's JSON verbatim.
	resp, body = get("/v1/campaigns/" + sub.ID + "/report")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d: %s", resp.StatusCode, body)
	}
	var rep manifest.Report
	if err := json.Unmarshal(body, &rep); err != nil || rep.Name != "http" {
		t.Fatalf("report %s: %v", body, err)
	}
	// List + queue.
	if resp, _ = get("/v1/campaigns"); resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	resp, body = get("/v1/queue")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queue status = %d", resp.StatusCode)
	}
	var q QueueStatus
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	// Unknowns are 404; cancel of a done campaign is 409.
	if resp, _ = get("/v1/campaigns/c99999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign status = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/campaigns/"+sub.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel done campaign status = %d", dresp.StatusCode)
	}

	// Telemetry rides on the same mux: per-tenant series on /metrics,
	// scheduler + coordinator state on /statusz.
	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `spa_campaignd_submitted_total{tenant="acme"} 1`) {
		t.Fatalf("/metrics missing per-tenant submitted series:\n%s", body)
	}
	if !strings.Contains(string(body), `spa_campaignd_campaigns_total{state="done",tenant="acme"} 1`) {
		t.Fatalf("/metrics missing per-tenant done series:\n%s", body)
	}
	resp, body = get("/statusz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"queue"`) || !strings.Contains(string(body), `"coordinator"`) {
		t.Fatalf("/statusz missing sections: %s", body)
	}
}

// HTTP admission rejections carry 429 + Retry-After and a machine
// reason.
func TestHTTPOverloadStatus(t *testing.T) {
	s := startService(t, Config{MaxRunning: 1, TenantQueueCap: 1, MaxQueued: 2})
	srv := httptest.NewServer(NewHandler(s, nil))
	defer srv.Close()

	submit := func(tenant, name string, runs int) *http.Response {
		t.Helper()
		mb, _ := json.Marshal(testManifest(name, 1, runs))
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json",
			strings.NewReader(`{"tenant":"`+tenant+`","manifest":`+string(mb)+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := submit("acme", "heavy", 4000); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	if resp := submit("acme", "q1", 8); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", resp.StatusCode)
	}
	resp := submit("acme", "q2", 8)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
}

// TestHTTPRejectsPathManifestName: a manifest's name prefixes every file
// its campaign writes into its own directory, so a tenant naming one
// "../c00000001/x" could overwrite another campaign's report and then
// read it back through their own report endpoint. Such a name must be a
// 400, and the data directory must be left exactly as it was.
func TestHTTPRejectsPathManifestName(t *testing.T) {
	root := t.TempDir()
	dataDir := filepath.Join(root, "data")
	s := startService(t, Config{DataDir: dataDir})
	srv := httptest.NewServer(NewHandler(s, nil))
	defer srv.Close()

	submit := func(name string) (*http.Response, SubmitResponse) {
		t.Helper()
		mb, _ := json.Marshal(testManifest(name, 1, 8))
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json",
			strings.NewReader(`{"tenant":"acme","manifest":`+string(mb)+`}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sub SubmitResponse
		json.NewDecoder(resp.Body).Decode(&sub)
		return resp, sub
	}
	// snapshot maps every file under root to its contents.
	snapshot := func() map[string]string {
		t.Helper()
		files := map[string]string{}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			files[path] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}

	resp, victim := submit("victim")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("victim submit status = %d", resp.StatusCode)
	}
	waitTerminal(t, s, victim.ID, 30*time.Second)
	before := snapshot()

	for _, name := range []string{"../" + victim.ID + "/x", "../../escaped"} {
		resp, sub := submit(name)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("manifest named %q: status %d, want 400", name, resp.StatusCode)
		}
		if sub.ID != "" {
			waitTerminal(t, s, sub.ID, 30*time.Second)
		}
	}
	after := snapshot()
	for path, b := range after {
		if !strings.HasPrefix(path, dataDir+string(filepath.Separator)) {
			t.Errorf("%s written outside the data directory", path)
		} else if prev, ok := before[path]; !ok || prev != b {
			t.Errorf("%s written by a rejected submission", path)
		}
	}
}

// TestHTTPRejectsHugeSubmissions: run counts are sizes the runner and the
// coordinator allocate by, and a campaign's cost is their sum. A manifest
// whose entries ask for 2^62 runs each used to be admitted and journaled
// with a wrapped negative cost, crash the service when it ran, and make
// every restart refuse the data directory. It must be a 400 with nothing
// journaled, and a body over maxSubmitBytes a 413; the service keeps
// serving.
func TestHTTPRejectsHugeSubmissions(t *testing.T) {
	dataDir := t.TempDir()
	s := startService(t, Config{DataDir: dataDir})
	srv := httptest.NewServer(NewHandler(s, nil))
	defer srv.Close()

	post := func(body string) (*http.Response, SubmitResponse) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sub SubmitResponse
		json.NewDecoder(resp.Body).Decode(&sub)
		return resp, sub
	}
	huge := testManifest("huge", 2, 8)
	for i := range huge.Entries {
		huge.Entries[i].Runs = 1 << 62
	}
	mb, _ := json.Marshal(huge)
	if resp, _ := post(`{"tenant":"acme","manifest":` + string(mb) + `}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("manifest of 2^62-run entries: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{"tenant":"` + strings.Repeat("a", 2<<20) + `"}`); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB submit body: status %d, want 413", resp.StatusCode)
	}
	if recs := s.List(); len(recs) != 0 {
		t.Fatalf("rejected submissions left %d campaign(s)", len(recs))
	}
	if ents, err := os.ReadDir(dataDir); err != nil || len(ents) != 0 {
		t.Fatalf("rejected submissions journaled %v (err %v)", ents, err)
	}

	mb, _ = json.Marshal(testManifest("after", 1, 8))
	resp, sub := post(`{"tenant":"acme","manifest":` + string(mb) + `}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid submit after the rejected ones: status %d", resp.StatusCode)
	}
	if rec := waitTerminal(t, s, sub.ID, 30*time.Second); rec.State != StateDone {
		t.Fatalf("campaign after the rejected ones ended %s: %s", rec.State, rec.Error)
	}
}
