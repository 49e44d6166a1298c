// Command paschedd is the scheduling daemon: internal/serve behind a plain
// net/http listener, with graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	paschedd [-addr 127.0.0.1:8080] [-addr-file path]
//	         [-arch zedboard|microzed|zc706] [-workers 2] [-queue 16]
//	         [-max-budget 30s] [-drain-budget 10s] [-max-sessions 8]
//	         [-trace trace.json] [-metrics metrics.json] [-events events.json]
//	         [-fault-queue-full N] [-fault-floorplan-infeasible N]
//
// Endpoints: POST /solve for stateless instances, POST /session/open,
// /session/submit and /session/close for rolling-horizon online scheduling
// (one long-lived engine per session, jobs streaming in over time), GET
// /healthz, GET /metrics, GET /debug/* (see internal/serve).
// -addr-file writes the actually-bound address (useful
// with -addr 127.0.0.1:0) so scripts can find an ephemeral port. The
// -fault-* flags arm the deterministic chaos hooks — forced queue-full
// admissions and solver-rung failures — so a load test can exercise the
// 429/degradation paths on a healthy machine.
//
// On SIGTERM/SIGINT the daemon stops accepting (late requests get 503),
// finishes in-flight work under -drain-budget, cancels stragglers through
// the root budget, flushes the observability artefacts and exits 0. A
// second signal forces immediate exit 1.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"resched/internal/faultinject"
	"resched/internal/obs"
	"resched/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paschedd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 = ephemeral)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file")
	archName := flag.String("arch", "zedboard", "default board preset for requests that name none")
	workers := flag.Int("workers", 2, "solver worker pool size")
	queue := flag.Int("queue", 16, "admission queue depth")
	maxBudget := flag.Duration("max-budget", 30*time.Second, "per-request budget clamp")
	drainBudget := flag.Duration("drain-budget", 10*time.Second, "graceful-drain allowance")
	maxSessions := flag.Int("max-sessions", 8, "concurrently open rolling-horizon sessions")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON here on drain")
	metricsPath := flag.String("metrics", "", "write metrics JSON here on drain")
	eventsPath := flag.String("events", "", "write flight-recorder JSON here on drain")
	faultQF := flag.Int("fault-queue-full", 0, "force the next N admissions to shed with 429 (-1 = all)")
	faultFP := flag.Int("fault-floorplan-infeasible", 0, "force the next N floorplan solves infeasible (-1 = all)")
	cacheEntries := flag.Int("cache-entries", 256, "schedule-cache capacity (0 = disable caching)")
	flag.Parse()

	// The wire flag reads naturally (0 = off) while the Config convention is
	// "0 = default, negative = off"; map between them here.
	cacheCfg := *cacheEntries
	if cacheCfg <= 0 {
		cacheCfg = -1
	}

	trace := obs.New()
	var faults *faultinject.Set
	if *faultQF != 0 || *faultFP != 0 {
		faults = faultinject.New()
		faults.SetTrace(trace)
		if *faultQF != 0 {
			faults.ForceQueueFull(*faultQF)
		}
		if *faultFP != 0 {
			faults.ForceFloorplanInfeasible(*faultFP)
		}
		fmt.Fprintf(os.Stderr, "paschedd: faults armed: %v\n", faults.Armed())
	}

	srv := serve.New(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		MaxBudget:    *maxBudget,
		DrainBudget:  *drainBudget,
		MaxSessions:  *maxSessions,
		DefaultArch:  *archName,
		CacheEntries: cacheCfg,
		Faults:       faults,
		Trace:        trace,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			_ = ln.Close()
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "paschedd: listening on %s (arch %s, %d workers, queue %d)\n",
		ln.Addr(), *archName, *workers, *queue)

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		return err
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "paschedd: %v: draining\n", sig)
	}

	// Second signal during drain: give up immediately.
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "paschedd: second signal, aborting")
		os.Exit(1)
	}()

	rep := srv.Drain()
	_ = httpSrv.Close()
	fmt.Fprintf(os.Stderr, "paschedd: drained (queued=%d in_flight=%d forced=%v)\n",
		rep.Queued, rep.InFlight, rep.Forced)
	return trace.WriteFiles(*tracePath, *metricsPath, *eventsPath)
}
