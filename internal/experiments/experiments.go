// Package experiments regenerates the paper's evaluation artefacts
// (Table I and Figures 2–6 of §VII) on the synthetic benchmark suite: it
// runs PA, PA-R, IS-1 and IS-5 over the 100-graph suite, aggregates
// per-group statistics, and renders the same rows and series the paper
// reports.
//
// Every algorithm column is dispatched through the unified solve engine
// (internal/solve): the harness names a registered solver and hands it one
// cross-cutting Options value, so adding an algorithm to the evaluation is
// a registry lookup, not a new scheduler-specific code path.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/obs"
	"resched/internal/schedule"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

// runSolver dispatches one registered solver on an instance through the
// unified solve engine. It is the single entry point every experiment in
// this package schedules through.
func runSolver(name string, g *taskgraph.Graph, a *arch.Architecture, opts solve.Options) (*solve.Result, error) {
	s, err := solve.Get(name)
	if err != nil {
		return nil, err
	}
	return s.Solve(&solve.Request{Graph: g, Arch: a, Options: opts})
}

// Config drives a full evaluation run.
type Config struct {
	// Seed generates the benchmark suite (default 2016).
	Seed int64
	// PerGroup caps the instances evaluated per group (0 = all 10). The
	// quick mode of cmd/experiments uses a smaller value.
	PerGroup int
	// Groups restricts the task-count groups (nil = all ten).
	Groups []int
	// Arch is the target platform (nil = ZedBoard).
	Arch *arch.Architecture
	// ParBudgetFactor scales PA-R's time budget relative to the measured
	// IS-5 runtime on the same instance (default 1.0, the paper's "same
	// amount of time" protocol).
	ParBudgetFactor float64
	// MinParBudget floors PA-R's budget so tiny IS-5 runtimes still allow
	// a meaningful search (default 20ms).
	MinParBudget time.Duration
	// Validate re-checks every schedule with the independent checker.
	Validate bool
	// Budget, when non-nil, bounds the whole evaluation: it is forwarded
	// into every scheduler (so a cancel lands mid-search) and checked at
	// every instance boundary. On exhaustion Run stops early and returns
	// the instances completed so far alongside an error matching
	// budget.ErrExhausted.
	Budget *budget.Budget
	// Faults, when armed, is forwarded into every scheduler to drive
	// failure paths deterministically.
	Faults *faultinject.Set
	// Robust additionally runs the robust solver's degradation ladder on
	// each instance and records which rung fired (InstanceResult.Robust).
	Robust bool
	// Trace, when non-nil, records one span per (instance, algorithm) pair
	// and forwards the trace into every scheduler so their attempt, phase
	// and window spans land in the same timeline. A nil trace is a no-op.
	// With Workers > 1 each instance records on a trace lane of its own
	// (obs.Trace.Lane), so concurrent instances never nest spans under
	// each other.
	Trace *obs.Trace
	// Workers bounds the number of instances evaluated concurrently
	// (0 or 1 = sequential, the historical behaviour). Results keep their
	// suite order regardless of completion order (indexed fan-in). Note
	// that concurrent instances share the machine, so the per-algorithm
	// wall-clock columns are only comparable within a run at a fixed
	// worker count — and since PA-R is an anytime search under a
	// wall-clock budget, its column can shift too (sharing cores buys
	// each instance fewer iterations). The deterministic PA and IS-k
	// columns are identical at any worker count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 2016
	}
	if c.Arch == nil {
		c.Arch = arch.ZedBoard()
	}
	if c.ParBudgetFactor == 0 {
		c.ParBudgetFactor = 1.0
	}
	if c.MinParBudget == 0 {
		c.MinParBudget = 20 * time.Millisecond
	}
	return c
}

// InstanceResult holds the outcome of all four algorithms on one instance.
type InstanceResult struct {
	Group, Index int
	Graph        *taskgraph.Graph

	PA, PAR, IS1, IS5 AlgoResult

	// Robust is recorded only when Config.Robust is set.
	Robust *RobustResult
}

// AlgoResult is one algorithm's outcome on one instance.
type AlgoResult struct {
	Makespan int64
	// Total is the wall-clock runtime; for PA and IS-k Scheduling and
	// Floorplanning split it as in Table I.
	Total, Scheduling, Floorplanning time.Duration
	// Err records a failure (nil otherwise); failed runs are excluded
	// from aggregation.
	Err error
}

// Run executes the four algorithms over the configured slice of the suite.
// The progress callback (may be nil) is invoked after each instance.
func Run(cfg Config, progress func(done, total int)) ([]InstanceResult, error) {
	cfg = cfg.withDefaults()
	suite, err := benchgen.Suite(cfg.Seed)
	if err != nil {
		return nil, err
	}
	groups := map[int]bool{}
	for _, g := range cfg.Groups {
		groups[g] = true
	}
	var selected []benchgen.SuiteEntry
	perGroup := map[int]int{}
	for _, e := range suite {
		if len(groups) > 0 && !groups[e.Group] {
			continue
		}
		if cfg.PerGroup > 0 && perGroup[e.Group] >= cfg.PerGroup {
			continue
		}
		perGroup[e.Group]++
		selected = append(selected, e)
	}
	return runSelected(cfg, selected, progress)
}

// runSelected evaluates the selected instances on forEachIndex. Each
// instance writes its result into its own slot, so the returned slice keeps
// suite order no matter how completions interleave. The progress callback
// sees completion counts (not suite positions) and, with Workers > 1, may
// be called from worker goroutines. A hard error poisons the run; an
// exhausted budget stops it early and hands back what completed with the
// typed reason, so callers can aggregate the partial run.
func runSelected(cfg Config, selected []benchgen.SuiteEntry, progress func(done, total int)) ([]InstanceResult, error) {
	type slot struct {
		res  InstanceResult
		err  error
		done bool
	}
	slots := make([]slot, len(selected))
	var completed atomic.Int64
	forEachIndex(len(selected), cfg.Workers, func(i int) bool {
		if cfg.Budget.Check() != nil {
			return false
		}
		icfg := cfg
		if cfg.Workers > 1 {
			// Concurrent instances each record on a lane of their own.
			icfg.Trace = cfg.Trace.Lane()
		}
		r, err := runInstance(icfg, selected[i])
		slots[i] = slot{res: r, err: err, done: true}
		if err != nil {
			return false
		}
		if progress != nil {
			progress(int(completed.Add(1)), len(selected))
		}
		return true
	})

	out := make([]InstanceResult, 0, len(selected))
	for i := range slots {
		if slots[i].err != nil {
			return nil, slots[i].err
		}
		if slots[i].done {
			out = append(out, slots[i].res)
		}
	}
	if len(out) < len(selected) {
		if berr := cfg.Budget.Check(); berr != nil {
			return out, fmt.Errorf("experiments: stopped after %d/%d instances: %w",
				len(out), len(selected), berr)
		}
	}
	return out, nil
}

// forEachIndex calls fn(i) for every i in [0, n), handing the indices out
// in order: inline on the calling goroutine when workers ≤ 1, otherwise on
// min(workers, n) goroutines. Once fn returns false no further index is
// handed out; calls already running finish. Callers that write fn's result
// into slot i get the same output at any worker count.
func forEachIndex(n, workers int, fn func(i int) bool) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !fn(i) {
					next.Store(int64(n))
					return
				}
			}
		}()
	}
	wg.Wait()
}

func runInstance(cfg Config, e benchgen.SuiteEntry) (InstanceResult, error) {
	res := InstanceResult{Group: e.Group, Index: e.Index, Graph: e.Graph}
	a := cfg.Arch

	check := func(sch *schedule.Schedule) error {
		if !cfg.Validate || sch == nil {
			return nil
		}
		if errs := schedule.Check(sch); len(errs) > 0 {
			return fmt.Errorf("invalid %s schedule on group %d idx %d: %v", sch.Algorithm, e.Group, e.Index, errs[0])
		}
		return nil
	}

	inst := cfg.Trace.Start("experiment.instance",
		obs.Int("group", int64(e.Group)), obs.Int("index", int64(e.Index)))
	defer inst.End()

	// Every column shares the cross-cutting concerns; each algorithm run
	// below only adds its protocol-specific knobs on top.
	base := solve.Options{Trace: cfg.Trace, Budget: cfg.Budget, Faults: cfg.Faults}
	reuse := base
	reuse.ModuleReuse = true

	// column dispatches one registered solver and folds its Result into
	// the uniform per-algorithm column; a failed run records Err and is
	// excluded from aggregation, a checker rejection poisons the instance.
	column := func(name string, opts solve.Options) (AlgoResult, error) {
		t0 := time.Now()
		r, err := runSolver(name, e.Graph, a, opts)
		col := AlgoResult{Total: time.Since(t0), Err: err}
		if err != nil {
			return col, nil
		}
		col.Makespan = r.Makespan
		col.Scheduling = r.SchedulingTime
		col.Floorplanning = r.FloorplanTime
		return col, check(r.Schedule)
	}

	var err error
	// PA.
	if res.PA, err = column("pa", base); err != nil {
		return res, err
	}
	// IS-1 and IS-5 (module reuse enabled, §VII-A).
	if res.IS1, err = column("is1", reuse); err != nil {
		return res, err
	}
	if res.IS5, err = column("is5", reuse); err != nil {
		return res, err
	}

	// PA-R with the IS-5-matched budget (§VII-A: "PA-R was assigned a time
	// budget equal to the time used by IS-5").
	parBudget := time.Duration(float64(res.IS5.Total) * cfg.ParBudgetFactor)
	if parBudget < cfg.MinParBudget {
		parBudget = cfg.MinParBudget
	}
	parOpts := base
	parOpts.TimeBudget = parBudget
	parOpts.Seed = cfg.Seed + int64(e.Group*100+e.Index)
	if res.PAR, err = column("par", parOpts); err != nil {
		return res, err
	}

	// Degradation ladder, when requested: records which rung fired under
	// the configured budget and faults. By construction it only errors on
	// instances no rung can schedule.
	if cfg.Robust {
		ropts := reuse
		ropts.TimeBudget = parBudget
		ropts.Seed = parOpts.Seed
		t0 := time.Now()
		r, rerr := runSolver("robust", e.Graph, a, ropts)
		rr := &RobustResult{Total: time.Since(t0), Err: rerr}
		if rerr == nil {
			rr.Makespan = r.Makespan
			rr.Rung = r.Ladder.Rung
			rr.Degraded = r.Ladder.Degraded
			if err := check(r.Schedule); err != nil {
				return res, err
			}
		}
		res.Robust = rr
	}
	return res, nil
}

// RobustResult is the degradation ladder's outcome on one instance.
type RobustResult struct {
	Makespan int64
	Rung     solve.Rung
	// Degraded reports that at least one rung above the final one failed.
	Degraded bool
	Total    time.Duration
	Err      error
}

// GroupStats aggregates one algorithm over one task-count group.
type GroupStats struct {
	Group int
	N     int
	// MeanMakespan and StdMakespan summarise schedule execution times.
	MeanMakespan, StdMakespan float64
	// Mean runtimes.
	MeanTotal, MeanScheduling, MeanFloorplanning time.Duration
}

// aggregate computes group statistics for the algorithm selected by pick.
func aggregate(results []InstanceResult, pick func(*InstanceResult) *AlgoResult) []GroupStats {
	byGroup := map[int][]float64{}
	times := map[int][3]time.Duration{}
	counts := map[int]int{}
	for i := range results {
		r := pick(&results[i])
		if r.Err != nil {
			continue
		}
		g := results[i].Group
		byGroup[g] = append(byGroup[g], float64(r.Makespan))
		t := times[g]
		t[0] += r.Total
		t[1] += r.Scheduling
		t[2] += r.Floorplanning
		times[g] = t
		counts[g]++
	}
	var groups []int
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	var out []GroupStats
	for _, g := range groups {
		xs := byGroup[g]
		n := len(xs)
		mean, std := meanStd(xs)
		t := times[g]
		out = append(out, GroupStats{
			Group: g, N: n,
			MeanMakespan: mean, StdMakespan: std,
			MeanTotal:         t[0] / time.Duration(n),
			MeanScheduling:    t[1] / time.Duration(n),
			MeanFloorplanning: t[2] / time.Duration(n),
		})
	}
	return out
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// Improvement summarises, per group, the relative makespan improvement of
// algorithm A over baseline B: mean of (B − A) / B per instance.
type Improvement struct {
	Group            int
	N                int
	MeanPct, StdPct  float64
	WinCount, Losses int
}

// improvements computes per-instance paired improvements.
func improvements(results []InstanceResult, pick, base func(*InstanceResult) *AlgoResult) []Improvement {
	byGroup := map[int][]float64{}
	for i := range results {
		a, b := pick(&results[i]), base(&results[i])
		if a.Err != nil || b.Err != nil || b.Makespan == 0 {
			continue
		}
		pct := 100 * float64(b.Makespan-a.Makespan) / float64(b.Makespan)
		byGroup[results[i].Group] = append(byGroup[results[i].Group], pct)
	}
	var groups []int
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	var out []Improvement
	for _, g := range groups {
		xs := byGroup[g]
		mean, std := meanStd(xs)
		imp := Improvement{Group: g, N: len(xs), MeanPct: mean, StdPct: std}
		for _, x := range xs {
			if x > 0 {
				imp.WinCount++
			} else if x < 0 {
				imp.Losses++
			}
		}
		out = append(out, imp)
	}
	return out
}

// OverallMean returns the unweighted mean of the per-group means, the
// figure the paper quotes ("14.8% on average").
func OverallMean(imps []Improvement) float64 {
	if len(imps) == 0 {
		return 0
	}
	var s float64
	for _, im := range imps {
		s += im.MeanPct
	}
	return s / float64(len(imps))
}

// Accessor helpers for the aggregation functions.
func PickPA(r *InstanceResult) *AlgoResult  { return &r.PA }
func PickPAR(r *InstanceResult) *AlgoResult { return &r.PAR }
func PickIS1(r *InstanceResult) *AlgoResult { return &r.IS1 }
func PickIS5(r *InstanceResult) *AlgoResult { return &r.IS5 }

// Fprintln is a tiny helper so report files never silently drop write
// errors in examples.
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
