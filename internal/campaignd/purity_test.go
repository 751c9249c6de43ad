package campaignd

import (
	"bytes"
	"os"
	"testing"
	"time"

	"repro/internal/manifest"
	"repro/internal/sim"
)

// interruptCampaign submits m to a service on dataDir, drains the
// service once an entry has started (the in-process equivalent of
// killing spad), checks the journal holds the campaign queued for its
// first resume, and returns the campaign's ID.
func interruptCampaign(t *testing.T, dataDir string, m *manifest.Manifest) string {
	t.Helper()
	svc := New(Config{DataDir: dataDir})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(Spec{Tenant: "acme", Manifest: m})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for started := false; !started; {
		rec, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range rec.Entries {
			started = started || (rec.State == StateRunning && e.State != EntryPending)
		}
		if rec.State.Terminal() {
			t.Fatalf("campaign finished before the drain could interrupt it — enlarge the manifest")
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never started")
		}
		time.Sleep(500 * time.Microsecond)
	}
	svc.Drain(30 * time.Second)
	rec, err := journal{dir: dataDir}.load(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateQueued || rec.Resumes != 1 {
		t.Fatalf("journal after drain: state=%v resumes=%d, want queued/1", rec.State, rec.Resumes)
	}
	return id
}

// serviceReport waits for campaign id on s to finish and returns its
// report bytes.
func serviceReport(t *testing.T, s *Service, id string) []byte {
	t.Helper()
	if rec := waitTerminal(t, s, id, 60*time.Second); rec.State != StateDone {
		t.Fatalf("campaign %s state = %v (error %q)", id, rec.State, rec.Error)
	}
	path, err := s.ReportPath(id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestReportDependsOnManifestOnly: a report's bytes are a function of
// its manifest alone. A manifest with a fixed and a stratified adaptive
// analysis gives the same report from a fresh runner, from a rerun that
// resumes in the same output directory, and from the campaign service,
// fresh and after a drain and restart.
func TestReportDependsOnManifestOnly(t *testing.T) {
	mk := func() *manifest.Manifest {
		m := testManifest("pure", 2, 150)
		m.Analyses = append(m.Analyses, manifest.Analysis{Metric: sim.MetricRuntime, F: 0.5, C: 0.9,
			TargetWidth: 4e-7, MaxSamples: 256, Sampling: "stratified"})
		return m
	}
	out := t.TempDir()
	fresh := &manifest.Runner{OutDir: out}
	m := mk()
	if _, err := fresh.Run(m); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fresh.ReportPath(m))
	if err != nil {
		t.Fatal(err)
	}

	rerun := &manifest.Runner{OutDir: out}
	rep, err := rerun.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reused) != 2 {
		t.Fatalf("rerun reused %v, want both entries", rep.Reused)
	}
	reports := map[string][]byte{}
	if reports["rerun in the same output directory"], err = os.ReadFile(rerun.ReportPath(m)); err != nil {
		t.Fatal(err)
	}

	svc := startService(t, Config{})
	id, err := svc.Submit(Spec{Tenant: "acme", Manifest: mk()})
	if err != nil {
		t.Fatal(err)
	}
	reports["campaign service"] = serviceReport(t, svc, id)

	data := t.TempDir()
	id = interruptCampaign(t, data, mk())
	reports["campaign service after a drain and restart"] = serviceReport(t, startService(t, Config{DataDir: data}), id)

	for how, got := range reports {
		if !bytes.Equal(got, want) {
			t.Errorf("%s: report differs from a fresh runner's:\n got %s\nwant %s", how, got, want)
		}
	}
}
