// Command pasched schedules a task-graph JSON file on a reconfigurable
// architecture using any solver registered in the unified solve engine
// (internal/solve) — the paper's PA and PA-R schedulers, the IS-k baseline,
// the exhaustive reference and the robust degradation ladder — and prints
// the resulting schedule.
//
// Usage:
//
//	pasched -graph app.json [-algo pa|par|is1|is5|exact|robust]
//	        [-budget 2s] [-iterations 0] [-reuse] [-gantt] [-dot out.dot]
//	        [-seed 1] [-workers 0] [-timeout 0] [-maxnodes 0]
//	        [-fault-floorplan-infeasible N]
//	        [-trace trace.json] [-metrics metrics.json] [-events events.json]
//	        [-serve-debug :8080]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The -algo values are exactly the registered solver names (solve.List);
// a new solver registered with solve.Register becomes reachable here with
// no dispatch change. -budget bounds PA-R's wall-clock search and
// -iterations caps its inner runs (also the ladder's PA-R rung); use
// -budget 0 -iterations N for a deterministic, machine-independent run.
//
// With -trace the run is recorded as a Chrome trace-event file (open it in
// Perfetto or chrome://tracing); -metrics writes the flat counters, span
// aggregates and histogram quantiles as JSON and prints a summary table to
// stderr; -events dumps the flight recorder. -serve-debug mounts the same
// exporters live on an HTTP address for the duration of the run (GET
// /metrics, /debug/trace, /debug/events, /debug/summary, /debug/pprof/) —
// see internal/obs/obshttp.
//
// -algo robust runs the degradation ladder (PA → PA-R → all-software)
// and reports which rung produced the schedule. -timeout and -maxnodes
// bound the whole run through the unified budget; the -fault-* flags
// deterministically inject solver failures, which is how the resilience
// paths are exercised from the command line.
//
// Exit codes: 0 success, 1 generic failure, 2 usage, 3 no floorplan-
// feasible schedule, 4 budget exhausted, 5 no all-software fallback.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/obs"
	"resched/internal/obs/obshttp"
	"resched/internal/sched"
	"resched/internal/schedule"
	"resched/internal/sim"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pasched:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps the typed failure classes of the resilience layer onto
// distinct exit codes so scripts can react without parsing stderr.
func exitCode(err error) int {
	switch {
	case errors.Is(err, sched.ErrNoSoftwareFallback):
		return 5
	case errors.Is(err, sched.ErrBudgetExhausted):
		return 4
	case errors.Is(err, sched.ErrFloorplanInfeasible):
		return 3
	}
	return 1
}

// run holds the whole command so error returns unwind through the deferred
// profile/trace finalisers; os.Exit in main would skip them.
func run() (retErr error) {
	var (
		graphPath   = flag.String("graph", "", "task-graph JSON file (required)")
		algo        = flag.String("algo", "pa", "solver: "+strings.Join(solve.List(), ", "))
		parBudget   = flag.Duration("budget", 2*time.Second, "PA-R time budget")
		iterations  = flag.Int("iterations", 0, "PA-R iteration cap (0 = unlimited; with -budget 0 the run is deterministic)")
		seed        = flag.Int64("seed", 1, "PA-R random seed")
		workers     = flag.Int("workers", 0, "PA-R search goroutines (0 = GOMAXPROCS, 1 = sequential)")
		reuse       = flag.Bool("reuse", false, "enable module reuse")
		gantt       = flag.Bool("gantt", false, "print a textual Gantt chart")
		simulate    = flag.Bool("sim", false, "execute the schedule on the discrete-event platform model")
		utilization = flag.Bool("stats", false, "print a utilisation report")
		width       = flag.Int("width", 100, "Gantt chart width in cells")
		dotPath     = flag.String("dot", "", "also write the task graph as Graphviz DOT")
		outPath     = flag.String("out", "", "write the schedule as JSON")
		svgPath     = flag.String("svg", "", "write the schedule as an SVG Gantt chart")
		tracePath   = flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto / chrome://tracing)")
		metricsPath = flag.String("metrics", "", "write flat counters, span aggregates and histograms as JSON")
		eventsPath  = flag.String("events", "", "write the flight-recorder events as JSON")
		serveDebug  = flag.String("serve-debug", "", "serve /metrics, /debug/trace, /debug/events and pprof on this address while the run lasts (e.g. :8080)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof)")
		memProfile  = flag.String("memprofile", "", "write a heap profile (runtime/pprof)")

		timeout  = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = unlimited)")
		maxNodes = flag.Int64("maxnodes", 0, "search-node budget across all solves (0 = unlimited)")
		faultFP  = flag.Int("fault-floorplan-infeasible", 0, "inject: force the next N floorplan solves infeasible (-1 = all)")
	)
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	solver, err := solve.Get(*algo)
	if err != nil {
		return err
	}

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

	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	g, err := taskgraph.Read(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if *dotPath != "" {
		df, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		if err := g.WriteDOT(df); err != nil {
			return err
		}
		if err := df.Close(); err != nil {
			return err
		}
	}

	// One trace serves every export and the live surface; it stays nil — a
	// true no-op — unless observability output was requested.
	var trace *obs.Trace
	if *tracePath != "" || *metricsPath != "" || *eventsPath != "" || *serveDebug != "" {
		trace = obs.New()
	}
	// Deferred so the artefacts are written on failure too: a budget-exhausted
	// or faulted run is exactly when the flight recorder matters most.
	defer func() {
		if err := trace.WriteFiles(*tracePath, *metricsPath, *eventsPath); err != nil && retErr == nil {
			retErr = err
		}
		if trace != nil {
			// The summary table (spans, histograms, counters, event tail).
			if err := trace.WriteSummary(os.Stderr); err != nil && retErr == nil {
				retErr = err
			}
		}
	}()
	if *serveDebug != "" {
		srv, err := obshttp.Serve(*serveDebug, trace)
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(os.Stderr, "debug surface on %s\n", srv.URL())
	}

	// The unified budget and fault set thread through every scheduler layer;
	// both stay nil (= unlimited / no faults) unless requested. Both feed
	// the flight recorder: budget exhaustion and injected faults show up in
	// -events and /debug/events.
	var bud *budget.Budget
	if *timeout > 0 || *maxNodes > 0 {
		bud = budget.New(budget.Options{Timeout: *timeout, MaxNodes: *maxNodes, Trace: trace})
	}
	var faults *faultinject.Set
	if *faultFP != 0 {
		faults = faultinject.New()
		faults.SetTrace(trace)
		faults.ForceFloorplanInfeasible(*faultFP)
	}

	req := &solve.Request{
		Graph: g,
		Arch:  arch.ZedBoard(),
		Options: solve.Options{
			ModuleReuse:   *reuse,
			Seed:          *seed,
			Workers:       *workers,
			TimeBudget:    *parBudget,
			MaxIterations: *iterations,
			Budget:        bud,
			Faults:        faults,
			Trace:         trace,
		},
	}
	start := time.Now()
	res, err := solver.Solve(req)
	if err != nil {
		return err
	}
	if err := res.WriteReport(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("total %v\n", time.Since(start).Round(time.Microsecond))
	sch := res.Schedule
	if errs := schedule.Check(sch); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "invalid schedule:", e)
		}
		return fmt.Errorf("schedule failed validation (%d errors)", len(errs))
	}
	fmt.Println(sch.Summary())
	for _, r := range sch.Regions {
		fmt.Printf("  region %d: %v (reconf %d ticks)\n", r.ID, r.Res, r.ReconfTime)
	}
	if *gantt {
		if err := sch.WriteGantt(os.Stdout, *width); err != nil {
			return err
		}
	}
	if *utilization {
		if err := schedule.ComputeStats(sch).WriteReport(os.Stdout); err != nil {
			return err
		}
	}
	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if err := sch.WriteJSON(of); err != nil {
			return err
		}
		if err := of.Close(); err != nil {
			return err
		}
	}
	if *svgPath != "" {
		sf, err := os.Create(*svgPath)
		if err != nil {
			return err
		}
		if err := sch.WriteSVG(sf); err != nil {
			return err
		}
		if err := sf.Close(); err != nil {
			return err
		}
	}
	if *simulate {
		res, err := sim.Execute(sch)
		if err != nil {
			return err
		}
		fmt.Printf("simulated: makespan %d ticks (%d ticks of static slack recovered), %d events\n",
			res.Makespan, res.Slack(sch), res.Events)
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
