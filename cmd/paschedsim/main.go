// Command paschedsim replays a seeded arrival trace through the
// rolling-horizon online engine (internal/online) and verifies the stitched
// result end to end: every epoch re-plans the tail from the committed
// prefix, the final schedule must pass schedule.Check, and an event-driven
// replay (internal/sim) must execute it under the arrival floors without
// beating the plan.
//
// Usage:
//
//	paschedsim [-seed 1] [-jobs 6] [-tasks 12] [-mean-gap 2000] [-comm-max 0]
//	           [-deadline-slack 0] [-arch zedboard|microzed|zc706]
//	           [-solver pa|par|is1|is5|robust] [-workers 1] [-iterations 8]
//	           [-module-reuse] [-no-prefetch] [-compare] [-epoch-nodes 0]
//	           [-polish 0] [-clairvoyant] [-fault-late-arrival N]
//	           [-fault-late-delay 1000] [-json]
//	           [-trace t.json] [-metrics m.json] [-events e.json]
//
// -compare runs the same trace twice — prefetching on and off — and reports
// how much reconfiguration stall the early issue times hid. -clairvoyant
// additionally solves the whole trace offline with every arrival known in
// advance, pricing the engine's lack of foresight. The -fault-late-arrival
// flag arms the deterministic late-arrival fault so deadline misses and
// re-plan churn are reproducible. Equal flags produce bit-identical traces,
// epoch sequences and schedules.
//
// With -daemon (or -daemon-addr-file, reading a paschedd -addr-file), the
// same trace is instead replayed against a running daemon through its
// session API (POST /session/open, /session/submit, /session/close) — the
// serving smoke uses this to exercise session mode end to end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"resched/internal/arch"
	"resched/internal/faultinject"
	"resched/internal/obs"
	"resched/internal/online"
	"resched/internal/schedule"
	"resched/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paschedsim:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 1, "trace and solver seed")
	jobs := flag.Int("jobs", 6, "arriving jobs in the trace")
	tasks := flag.Int("tasks", 12, "tasks per job")
	meanGap := flag.Int64("mean-gap", 2000, "mean inter-arrival gap (ticks)")
	commMax := flag.Int64("comm-max", 0, "max edge communication time (0 = none)")
	deadlineSlack := flag.Float64("deadline-slack", 0, "deadline = arrival + slack * critical path (0 = no deadlines)")
	archName := flag.String("arch", "zedboard", "board preset")
	solver := flag.String("solver", "pa", "epoch re-plan solver")
	workers := flag.Int("workers", 1, "in-solver parallelism")
	iterations := flag.Int("iterations", 8, "randomized-solver iteration cap per epoch")
	moduleReuse := flag.Bool("module-reuse", false, "enable module-reuse semantics")
	noPrefetch := flag.Bool("no-prefetch", false, "retime every epoch to the issue-at-dispatch baseline")
	compare := flag.Bool("compare", false, "run with and without prefetching and report the stall delta")
	epochNodes := flag.Int64("epoch-nodes", 0, "per-epoch search-node budget (0 = unbounded)")
	polish := flag.Int("polish", 0, "PA-R polish iterations on finalize (0 = off)")
	clairvoyant := flag.Bool("clairvoyant", false, "also solve offline with all arrivals known")
	faultLate := flag.Int("fault-late-arrival", 0, "delay the next N submissions (-1 = all)")
	faultDelay := flag.Int64("fault-late-delay", 1000, "late-arrival delay (ticks)")
	jsonOut := flag.Bool("json", false, "emit the run summary as JSON")
	daemon := flag.String("daemon", "", "replay against a running paschedd at this address (session API)")
	daemonFile := flag.String("daemon-addr-file", "", "read the daemon address from this file (paschedd -addr-file)")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON here")
	metricsPath := flag.String("metrics", "", "write metrics JSON here")
	eventsPath := flag.String("events", "", "write flight-recorder JSON here")
	flag.Parse()

	a, err := arch.Preset(*archName)
	if err != nil {
		return err
	}
	trace := obs.New()
	var faults *faultinject.Set
	if *faultLate != 0 {
		faults = faultinject.New()
		faults.SetTrace(trace)
		faults.ForceLateArrival(*faultLate, *faultDelay)
	}
	tc := online.TraceConfig{
		Jobs:          *jobs,
		TasksPerJob:   *tasks,
		Seed:          *seed,
		MeanGap:       *meanGap,
		CommMax:       *commMax,
		DeadlineSlack: *deadlineSlack,
	}
	cfg := online.Config{
		Arch:             a,
		Solver:           *solver,
		Workers:          *workers,
		Seed:             *seed,
		MaxIterations:    *iterations,
		ModuleReuse:      *moduleReuse,
		DisablePrefetch:  *noPrefetch,
		EpochNodes:       *epochNodes,
		PolishIterations: *polish,
		Clairvoyant:      *clairvoyant,
		Faults:           faults,
		Trace:            trace,
	}

	if *daemon != "" || *daemonFile != "" {
		addr, err := daemonAddr(*daemon, *daemonFile)
		if err != nil {
			return err
		}
		return replayDaemon(addr, tc, cfg)
	}

	res, err := replay(tc, cfg)
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := writeSummary(os.Stdout, tc, cfg, res); err != nil {
			return err
		}
	} else {
		printRun(res, *solver)
	}

	if *compare {
		alt := cfg
		alt.DisablePrefetch = !cfg.DisablePrefetch
		alt.Faults = nil // the armed counts were consumed by the first run
		altRes, err := replay(tc, alt)
		if err != nil {
			return err
		}
		with, without := res, altRes
		if cfg.DisablePrefetch {
			with, without = altRes, res
		}
		fmt.Printf("\nprefetch comparison (seed %d):\n", *seed)
		fmt.Printf("  with prefetch:    makespan %6d  stall %6d  (issued %d, hits %d, misses %d)\n",
			with.Schedule.Makespan, totalStall(with), totalIssued(with), totalHits(with), totalMisses(with))
		fmt.Printf("  issue-at-dispatch: makespan %6d  stall %6d\n",
			without.Schedule.Makespan, totalStall(without))
		fmt.Printf("  stall hidden by prefetching: %d ticks\n", totalStall(without)-totalStall(with))
	}

	return trace.WriteFiles(*tracePath, *metricsPath, *eventsPath)
}

// replay generates the trace, runs the engine over it, and verifies the
// stitched schedule: structural validity (schedule.Check ran inside the
// engine at every epoch) plus an event-driven execution under the arrival
// floors that must meet the planned makespan.
func replay(tc online.TraceConfig, cfg online.Config) (*online.Result, error) {
	tr, err := online.GenTrace(tc)
	if err != nil {
		return nil, err
	}
	eng, err := online.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.SubmitTrace(tr); err != nil {
		return nil, err
	}
	res, err := eng.Finalize()
	if err != nil {
		return nil, err
	}
	if res.Schedule == nil {
		return nil, fmt.Errorf("empty trace produced no schedule")
	}
	if errs := schedule.Check(res.Schedule); len(errs) > 0 {
		return nil, fmt.Errorf("stitched schedule invalid: %v", errs[0])
	}
	exec, err := sim.ExecuteFrom(res.Schedule, res.Release)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if exec.Makespan > res.Schedule.Makespan {
		return nil, fmt.Errorf("replay makespan %d exceeds plan %d", exec.Makespan, res.Schedule.Makespan)
	}
	return res, nil
}

func printRun(res *online.Result, solver string) {
	fmt.Printf("online run: %d jobs, %d epochs, solver %s\n", len(res.Jobs), len(res.Epochs), solver)
	fmt.Printf("%8s %7s %7s %6s %9s %7s %6s %6s %9s\n",
		"commit", "new", "frozen", "tail", "makespan", "issued", "hits", "miss", "replan")
	for _, ep := range res.Epochs {
		deg := ""
		if ep.Degraded {
			deg = "  (degraded)"
		}
		fmt.Printf("%8d %7d %7d %6d %9d %7d %6d %6d %9s%s\n",
			ep.Commit, ep.NewJobs, ep.FrozenTasks, ep.TailTasks, ep.Makespan,
			ep.PrefetchIssued, ep.PrefetchHits, ep.PrefetchMisses, ep.ReplanTime.Round(10_000), deg)
	}
	fmt.Printf("stitched makespan %d, stall %d (hidden %d)\n",
		res.Schedule.Makespan, totalStall(res), totalHidden(res))
	for j, end := range res.JobEnds {
		late := ""
		if d := res.Jobs[j].Deadline; d > 0 && end > d {
			late = fmt.Sprintf("  MISSED deadline %d", d)
		}
		fmt.Printf("  %-12s arrival %6d  end %6d%s\n", res.Jobs[j].Name, res.Jobs[j].Arrival, end, late)
	}
	if res.LateArrivals > 0 {
		fmt.Printf("late arrivals (fault-injected): %d\n", res.LateArrivals)
	}
	if res.PolishImproved {
		fmt.Println("final polish pass improved the last epoch")
	}
	if res.ClairvoyantMakespan > 0 {
		fmt.Printf("clairvoyant makespan %d, online gap %d\n", res.ClairvoyantMakespan, res.ClairvoyantGap)
	}
}

func totalStall(r *online.Result) (n int64) {
	for _, ep := range r.Epochs {
		n += ep.Stall
	}
	return
}

func totalHidden(r *online.Result) (n int64) {
	for _, ep := range r.Epochs {
		n += ep.StallHidden
	}
	return
}

func totalIssued(r *online.Result) (n int) {
	for _, ep := range r.Epochs {
		n += ep.PrefetchIssued
	}
	return
}

func totalHits(r *online.Result) (n int) {
	for _, ep := range r.Epochs {
		n += ep.PrefetchHits
	}
	return
}

func totalMisses(r *online.Result) (n int) {
	for _, ep := range r.Epochs {
		n += ep.PrefetchMisses
	}
	return
}

// summary is the -json document: config echo plus the deterministic run
// outcome (replan wall-clock is deliberately excluded).
type summary struct {
	Seed            int64   `json:"seed"`
	Jobs            int     `json:"jobs"`
	Epochs          int     `json:"epochs"`
	Solver          string  `json:"solver"`
	Makespan        int64   `json:"makespan"`
	Stall           int64   `json:"stall"`
	StallHidden     int64   `json:"stall_hidden"`
	PrefetchIssued  int     `json:"prefetch_issued"`
	PrefetchHits    int     `json:"prefetch_hits"`
	PrefetchMisses  int     `json:"prefetch_misses"`
	JobEnds         []int64 `json:"job_ends"`
	MissedDeadlines []int   `json:"missed_deadlines,omitempty"`
	LateArrivals    int     `json:"late_arrivals,omitempty"`
	Clairvoyant     int64   `json:"clairvoyant_makespan,omitempty"`
	ClairvoyantGap  int64   `json:"clairvoyant_gap,omitempty"`
}

func writeSummary(w io.Writer, tc online.TraceConfig, cfg online.Config, res *online.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(summary{
		Seed:            tc.Seed,
		Jobs:            len(res.Jobs),
		Epochs:          len(res.Epochs),
		Solver:          cfg.Solver,
		Makespan:        res.Schedule.Makespan,
		Stall:           totalStall(res),
		StallHidden:     totalHidden(res),
		PrefetchIssued:  totalIssued(res),
		PrefetchHits:    totalHits(res),
		PrefetchMisses:  totalMisses(res),
		JobEnds:         res.JobEnds,
		MissedDeadlines: res.MissedDeadlines,
		LateArrivals:    res.LateArrivals,
		Clairvoyant:     res.ClairvoyantMakespan,
		ClairvoyantGap:  res.ClairvoyantGap,
	})
}
