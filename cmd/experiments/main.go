// Command experiments regenerates the paper's evaluation artefacts:
// Table I and Figures 2–6 of §VII, over the synthetic benchmark suite.
//
// Usage:
//
//	experiments [-exp all|table1|fig2|fig3|fig4|fig5|fig6]
//	            [-per-group 10] [-seed 2016] [-fig6-budget 5s] [-quiet]
//	            [-workers 1]
//	            [-trace trace.json] [-metrics metrics.json]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// A full run (-per-group 10) evaluates 100 instances × 4 algorithms; use
// -per-group 2 or 3 for a quick look. With -trace every scheduler run
// lands in one Chrome trace-event timeline (open in Perfetto); -metrics
// aggregates spans and counters as JSON and prints a summary to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"resched/internal/budget"
	"resched/internal/experiments"
	"resched/internal/obs"
	"resched/internal/obs/obshttp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run holds the whole command so error returns unwind through the deferred
// profile/trace finalisers; os.Exit in main would skip them.
func run() (retErr error) {
	var (
		exp         = flag.String("exp", "all", "experiment: all, table1, fig2, fig3, fig4, fig5, fig6, contention, parallelism or optgap")
		perGroup    = flag.Int("per-group", 10, "instances per task-count group")
		seed        = flag.Int64("seed", 2016, "benchmark suite seed")
		fig6Budget  = flag.Duration("fig6-budget", 5*time.Second, "PA-R budget per Fig. 6 instance")
		quiet       = flag.Bool("quiet", false, "suppress progress output")
		workers     = flag.Int("workers", 1, "instances evaluated concurrently (1 = sequential; >1 makes the wall-clock columns noisy and can shift the time-budgeted PA-R column)")
		timeout     = flag.Duration("timeout", 0, "wall-clock budget for the suite evaluation; on exhaustion the run stops early and reports the completed instances (0 = unlimited)")
		robust      = flag.Bool("robust", false, "additionally run the degradation ladder per instance and report the rung distribution")
		tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto / chrome://tracing)")
		metricsPath = flag.String("metrics", "", "write flat counters, span aggregates and histograms as JSON")
		eventsPath  = flag.String("events", "", "write the flight-recorder events as JSON")
		serveDebug  = flag.String("serve-debug", "", "serve /metrics, /debug/trace, /debug/events and pprof on this address while the sweep runs (e.g. :8080)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof)")
		memProfile  = flag.String("memprofile", "", "write a heap profile (runtime/pprof)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		cf, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			_ = cf.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = cf.Close()
		}()
	}

	var trace *obs.Trace
	if *tracePath != "" || *metricsPath != "" || *eventsPath != "" || *serveDebug != "" {
		trace = obs.New()
	}
	// Deferred so the artefacts are written even when the sweep fails or is
	// cut short: an exhausted or aborted run is when the recorder matters.
	defer func() {
		if err := trace.WriteFiles(*tracePath, *metricsPath, *eventsPath); err != nil && retErr == nil {
			retErr = err
		}
		if trace != nil {
			if err := trace.WriteSummary(os.Stderr); err != nil && retErr == nil {
				retErr = err
			}
		}
	}()
	// The live surface is the point of -serve-debug on this command: a
	// multi-hour sweep can be watched (and pprof'd) while it runs.
	if *serveDebug != "" {
		srv, err := obshttp.Serve(*serveDebug, trace)
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(os.Stderr, "debug surface on %s\n", srv.URL())
	}

	cfg := experiments.Config{Seed: *seed, PerGroup: *perGroup, Validate: true, Trace: trace, Robust: *robust, Workers: *workers}
	if *timeout > 0 {
		cfg.Budget = budget.New(budget.Options{Timeout: *timeout, Trace: trace})
	}
	want := strings.ToLower(*exp)
	needSuite := want != "fig6" && want != "contention" && want != "parallelism" && want != "optgap"

	var results []experiments.InstanceResult
	if needSuite {
		start := time.Now()
		progress := func(done, total int) {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "\rinstances %d/%d (%v)", done, total, time.Since(start).Round(time.Second))
			}
		}
		var err error
		results, err = experiments.Run(cfg, progress)
		if !*quiet {
			fmt.Fprintln(os.Stderr)
		}
		if err != nil {
			if len(results) == 0 {
				return err
			}
			// Budget exhausted mid-suite: aggregate what completed.
			fmt.Fprintf(os.Stderr, "warning: %v; reporting %d completed instances\n", err, len(results))
		}
		if *robust {
			rungs := map[string]int{}
			for _, r := range results {
				if r.Robust != nil && r.Robust.Err == nil {
					rungs[r.Robust.Rung.String()]++
				}
			}
			fmt.Printf("robust ladder rungs: full=%d retried=%d randomized=%d software-only=%d\n\n",
				rungs["full"], rungs["retried"], rungs["randomized"], rungs["software-only"])
		}
	}

	show := func(name string, f func()) {
		if want == "all" || want == name {
			f()
			fmt.Println()
		}
	}
	show("table1", func() { experiments.WriteTable1(os.Stdout, results) })
	show("fig2", func() { experiments.WriteFig2(os.Stdout, results) })
	show("fig3", func() { experiments.WriteFig3(os.Stdout, results) })
	show("fig4", func() { experiments.WriteFig4(os.Stdout, results) })
	show("fig5", func() { experiments.WriteFig5(os.Stdout, results) })
	var runErr error
	show("fig6", func() {
		points, err := experiments.RunFig6(cfg, experiments.Fig6Config{Seed: *seed, Budget: *fig6Budget})
		if err != nil {
			runErr = err
			return
		}
		experiments.WriteFig6(os.Stdout, points)
	})
	if runErr != nil {
		return runErr
	}
	if want == "contention" {
		points, err := experiments.RunContention(experiments.ContentionConfig{Seed: *seed})
		if err != nil {
			return err
		}
		experiments.WriteContention(os.Stdout, points)
	}
	if want == "parallelism" {
		points, err := experiments.RunParallelism(experiments.ParallelismConfig{Seed: *seed, Workers: *workers})
		if err != nil {
			return err
		}
		experiments.WriteParallelism(os.Stdout, points)
	}
	if want == "optgap" {
		points, err := experiments.RunOptGap(experiments.OptGapConfig{Seed: *seed})
		if err != nil {
			return err
		}
		experiments.WriteOptGap(os.Stdout, points)
	}

	if *memProfile != "" {
		mf, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
	}
	return nil
}
