// Command spaworker serves SPA campaign chunks to remote coordinators:
// it listens on a TCP address, executes the workload+sim runs that
// campaign/spa processes dispatch to it (see internal/dist), and streams
// the results back. Because every run is deterministic for its seed,
// a fleet of spaworkers produces populations byte-identical to a local
// campaign.
//
// Usage:
//
//	spaworker -listen :9777                 # serve until SIGINT/SIGTERM
//	spaworker -listen 127.0.0.1:0 -parallel 4
//
// Point campaign or spa at it with -workers host:port[,host:port...].
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/dist"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "spaworker:", err)
		os.Exit(1)
	}
}

// run starts the worker and serves until a termination signal arrives or
// ready (a test seam) is handed the worker and closes it.
func run(args []string, w io.Writer, ready func(*dist.Worker)) error {
	fs := flag.NewFlagSet("spaworker", flag.ContinueOnError)
	listen := fs.String("listen", ":9777", "TCP address to serve on (host:port; port 0 picks a free port)")
	parallel := fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight chunks on SIGINT/SIGTERM before closing hard")
	version := fs.Bool("version", false, "print build information and exit")
	var of obs.Flags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Fprint(w, "spaworker")
		return nil
	}
	o, closeObs, err := of.Start("chunks", w)
	if err != nil {
		return err
	}

	worker := &dist.Worker{Parallelism: *parallel, Obs: o}
	// /statusz reports the worker's own serving state (runs served,
	// in-flight, active connections).
	o.SetStatus(func() any { return worker.Status() })
	if err := worker.Listen(*listen); err != nil {
		closeObs()
		return err
	}
	fmt.Fprintf(w, "spaworker: listening on %s\n", worker.Addr())

	if ready != nil {
		ready(worker)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sig
			fmt.Fprintf(w, "spaworker: %v, draining (in-flight chunks finish, new ones are refused)\n", s)
			if err := worker.Shutdown(*drainTimeout); err != nil {
				fmt.Fprintf(w, "spaworker: drain: %v\n", err)
			}
		}()
	}

	err = worker.Serve()
	if cerr := closeObs(); err == nil {
		err = cerr
	}
	return err
}
