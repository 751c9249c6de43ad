// Command spad is the SPA campaign daemon: a multi-tenant HTTP service
// that admits campaign manifests, schedules them fairly across tenants
// (weighted deficit round robin, FIFO per tenant), executes them over a
// shared worker fleet, and journals every state transition so a
// restarted spad resumes exactly where it stopped — populations already
// simulated are reloaded, not re-run, and the final report is identical
// to an uninterrupted run.
//
// Usage:
//
//	spad -listen :9800 -data /var/lib/spad
//	spad -listen :9800 -data ./spad-data -workers :9777,:9778 -popcache ./popcache
//
// API (see README "Campaign service"):
//
//	POST   /v1/campaigns             {"tenant": "...", "priority": N, "manifest": {...}}
//	GET    /v1/campaigns             list
//	GET    /v1/campaigns/{id}        status + per-entry progress + convergence rounds
//	GET    /v1/campaigns/{id}/report final report
//	DELETE /v1/campaigns/{id}        cancel
//	GET    /v1/queue                 per-tenant scheduler snapshot
//	GET    /metrics | /statusz | /healthz
//
// SIGINT/SIGTERM drains gracefully: admission closes (503), running
// campaigns are journaled back to queued, and the process exits 0.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/campaignd"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/popcache"
	"repro/internal/sampling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "spad:", err)
		os.Exit(1)
	}
}

// run boots the daemon and serves until a termination signal arrives or
// ready (a test seam) is handed the bound address and the stop func.
func run(args []string, w io.Writer, ready func(addr string, stop func())) error {
	fs := flag.NewFlagSet("spad", flag.ContinueOnError)
	listen := fs.String("listen", ":9800", "HTTP address to serve on (host:port; port 0 picks a free port)")
	dataDir := fs.String("data", "", "journal directory: one subdirectory per campaign (required)")
	workers := fs.String("workers", "", "comma-separated spaworker addresses shared by all campaigns (empty = run in-process)")
	parallel := fs.Int("parallel", 0, "max concurrent in-process simulations across all campaigns (0 = GOMAXPROCS)")
	popcacheDir := fs.String("popcache", "", "content-addressed population cache directory shared across campaigns")
	samplingDesign := fs.String("sampling", "", "default variance-reduction design for adaptive analyses: plain, stratified or rss (per-analysis manifest settings win)")
	maxRunning := fs.Int("max-running", 0, "max concurrently executing campaigns across all tenants (0 = 4)")
	tenantRunning := fs.Int("tenant-running", 0, "max concurrently executing campaigns per tenant (0 = 2)")
	tenantQueue := fs.Int("tenant-queue", 0, "max queued campaigns per tenant before 429 (0 = 16)")
	maxQueued := fs.Int("max-queued", 0, "max queued campaigns server-wide before 429 (0 = 256)")
	quantum := fs.Int("quantum", 0, "DRR credit per scheduler rotation, in simulated runs (0 = 256)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to wait for running campaigns to journal themselves on SIGINT/SIGTERM")
	version := fs.Bool("version", false, "print build information and exit")
	var of obs.Flags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Fprint(w, "spad")
		return nil
	}
	if *dataDir == "" {
		return fmt.Errorf("-data is required")
	}
	if _, err := sampling.ParseDesign(*samplingDesign); err != nil {
		return err
	}
	o, closeObs, err := of.Start("campaigns", w)
	if err != nil {
		return err
	}
	defer func() { _ = closeObs() }()
	if o == nil {
		// Unlike the one-shot CLIs, the daemon always serves /metrics and
		// /statusz, so it needs a live registry even with no telemetry
		// flags.
		o = &obs.Observer{Metrics: obs.NewRegistry()}
	}

	cfg := campaignd.Config{
		DataDir:          *dataDir,
		Workers:          dist.SplitAddrs(*workers),
		Parallelism:      *parallel,
		MaxRunning:       *maxRunning,
		TenantRunningCap: *tenantRunning,
		TenantQueueCap:   *tenantQueue,
		MaxQueued:        *maxQueued,
		Quantum:          *quantum,
		Sampling:         *samplingDesign,
		Obs:              o,
	}
	if *popcacheDir != "" {
		cfg.PopCache = popcache.New(*popcacheDir, 0)
	}
	svc := campaignd.New(cfg)
	if err := svc.Start(); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: campaignd.NewHandler(svc, o), ReadHeaderTimeout: 5 * time.Second}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	fmt.Fprintf(w, "spad: serving on %s (data %s, %d workers)\n", ln.Addr(), *dataDir, len(cfg.Workers))

	stop := func() {
		svc.Drain(*drainTimeout)
		_ = srv.Close()
	}
	if ready != nil {
		ready(ln.Addr().String(), stop)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sig
			fmt.Fprintf(w, "spad: %v, draining (running campaigns journal themselves back to queued)\n", s)
			stop()
		}()
	}

	if err := <-serveDone; err != nil && err != http.ErrServerClosed {
		return err
	}
	fmt.Fprintln(w, "spad: drained, exiting")
	return nil
}
