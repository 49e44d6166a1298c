// Command perfbench is the repository's end-to-end benchmark. One run takes
// a workload name and a seed, generates that workload's inputs from the
// seed, drives the system through its public entry points only — the solver
// registry (solve.Get(name).Solve), the online engine (online.Engine) and a
// paschedd daemon process built from the same tree — checks every output,
// and prints every metric by name with its unit.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload table1|serve-mix|online-long \
//	    --seed 1 --seconds 30 --trace 0|1
//	bash perfbench/run.sh --selftest
//	bash perfbench/run.sh --workload serve-mix --capacity
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate traced
// run that prints the per-layer metrics instead. The last line of standard
// output is one JSON object {"correct","attempted","failed","metrics"}; the
// line before it records the run environment. README.md in this directory
// lists the workloads, metrics and the layer each metric belongs to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"resched/internal/schedule"
	"resched/internal/sim"
)

// config is the parsed command line shared by every workload.
type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	root     string
	daemon   string
}

// report is what a workload run hands back: the operation tally, whether
// every returned output verified, and the metric values by name.
type report struct {
	attempted, failed int64
	correct           bool
	values            map[string]float64
}

func newReport() *report { return &report{correct: true, values: map[string]float64{}} }

// fail records one failed operation; bad marks an output that came back
// but did not verify, which makes the whole run incorrect.
func (r *report) fail(bad bool, err error) {
	r.failed++
	if bad {
		r.correct = false
	}
	if r.failed <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", err)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(config) (*report, error){
	wTable1: runTable1,
	wServe:  runServeMix,
	wOnline: runOnline,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: table1, serve-mix or online-long")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "input seed (the same seed gives the same inputs)")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout the run reads and writes in")
	flag.StringVar(&cfg.daemon, "daemon", "", "paschedd binary built from the checkout")
	selftest := flag.Bool("selftest", false, "run the harness self-test and exit")
	capacity := flag.Bool("capacity", false, "measure the serve-mix closed-loop capacity and exit")
	flag.Parse()
	cfg.traced = trace == 1

	if *selftest {
		return runSelftest(cfg)
	}
	if *capacity {
		return runCapacity(cfg)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds)
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "BENCHMARK.json")); err != nil {
		return fmt.Errorf("not a benchmark checkout: %w", err)
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s, %s, %s)", cfg.workload, wTable1, wServe, wOnline)
	}
	rep, err := wl(cfg)
	if err != nil {
		return err
	}
	line, err := assemble(cfg, rep)
	if err != nil {
		return err
	}
	envLine, err := json.Marshal(map[string]any{"env": environment(cfg)})
	if err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	fmt.Println(string(out))
	return nil
}

// assemble checks the workload's values against the catalogue and attaches
// the units. The line holds every metric of the run's kind: the workload
// must have measured each one whose layer it exercises, as a finite number,
// and none other; a layer it does not exercise reads 0.
func assemble(cfg config, rep *report) (*resultLine, error) {
	if rep.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	want := metricsFor(cfg.traced)
	line := &resultLine{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(want))}
	for _, m := range want {
		v, ok := rep.values[m.name]
		switch {
		case ok && !m.runsOn(cfg.workload):
			return nil, fmt.Errorf("workload %s measured %s, whose layer it does not run", cfg.workload, m.name)
		case !ok && m.runsOn(cfg.workload):
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number", m.name)
		}
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	var extra []string
	for name := range rep.values {
		if _, ok := line.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("workload %s measured undeclared metrics %v", cfg.workload, extra)
	}
	return line, nil
}

// scratchDir returns (creating it) a directory under the checkout's
// ignored build tree for run artefacts: daemon logs, address files and the
// traced run's span dumps.
func scratchDir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.root, ".bench_build", name)
	return dir, os.MkdirAll(dir, 0o755)
}

// measureSetup runs a set-up step reps times and returns the median
// wall-clock duration in seconds together with the last step's result.
// Each repetition starts from a collected heap, so none of them pays for
// the garbage of the one before.
func measureSetup[T any](reps int, step func() (T, error)) (T, float64, error) {
	var last T
	durs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		begin := time.Now()
		v, err := step()
		durs = append(durs, time.Since(begin).Seconds())
		if err != nil {
			return last, 0, err
		}
		last = v
	}
	return last, median(durs), nil
}

// verifySchedule checks one output schedule: valid (schedule.Check), the
// makespan reported with it its own, and an event-driven replay under the
// release floors (sim.ExecuteFrom; nil for none) that does not overrun it.
// It returns how long the replay took.
func verifySchedule(s *schedule.Schedule, reported int64, release []int64) (time.Duration, error) {
	if errs := schedule.Check(s); len(errs) > 0 {
		return 0, fmt.Errorf("invalid schedule: %v", errs[0])
	}
	if reported != s.Makespan || s.Makespan != s.ComputeMakespan() {
		return 0, fmt.Errorf("reported makespan %d, schedule's own %d", reported, s.ComputeMakespan())
	}
	begin := time.Now()
	exec, err := sim.ExecuteFrom(s, release)
	replay := time.Since(begin)
	if err != nil {
		return replay, fmt.Errorf("replay: %w", err)
	}
	if exec.Makespan > s.Makespan {
		return replay, fmt.Errorf("replay makespan %d exceeds plan %d", exec.Makespan, s.Makespan)
	}
	return replay, nil
}
