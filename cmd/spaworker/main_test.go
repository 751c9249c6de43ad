package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/population"
	"repro/internal/sim"
)

func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-version"}, &buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "spaworker ") || !strings.Contains(buf.String(), "go: go") {
		t.Errorf("version output wrong:\n%s", buf.String())
	}
}

func TestBadFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nope"}, &buf, nil); err == nil {
		t.Error("unknown flag should error")
	}
	if err := run([]string{"-listen", "256.0.0.1:bad"}, &buf, nil); err == nil {
		t.Error("unusable listen address should error")
	}
}

// TestServeEndToEnd boots the CLI worker on a free port, runs a small
// campaign against it through a coordinator, and checks the samples
// match a local run.
func TestServeEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	workerCh := make(chan *dist.Worker, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0"}, &buf, func(w *dist.Worker) { workerCh <- w })
	}()
	var worker *dist.Worker
	select {
	case worker = <-workerCh:
	case err := <-done:
		t.Fatalf("worker exited early: %v", err)
	}
	defer worker.Close()

	coord := &dist.Coordinator{Workers: []string{worker.Addr()}}
	pop, err := coord.GeneratePopulationCtx(context.Background(), "swaptions", sim.DefaultConfig(), 0.05, 8, 3, population.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := population.Generate("swaptions", sim.DefaultConfig(), 0.05, 8, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := pop.Metrics[sim.MetricRuntime]
	exp := want.Metrics[sim.MetricRuntime]
	if len(got) != len(exp) {
		t.Fatalf("got %d samples, want %d", len(got), len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Errorf("sample %d: %g != %g", i, got[i], exp[i])
		}
	}

	worker.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v on clean close", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("worker did not shut down after Close")
	}
	if !strings.Contains(buf.String(), "listening on 127.0.0.1:") {
		t.Errorf("missing listen line:\n%s", buf.String())
	}
}
