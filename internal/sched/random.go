package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/floorplan"
	"resched/internal/obs"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// RandomOptions tune the randomized scheduler PA-R (Algorithm 1 of §VI).
type RandomOptions struct {
	// TimeBudget is the wall-clock budget (timeToRun of Algorithm 1);
	// zero means no time limit (MaxIterations or Budget must then be set).
	// It is applied as a WithTimeout child of Budget, so the overall
	// budget's node cap and cancellation still govern the search.
	TimeBudget time.Duration
	// MaxIterations optionally caps the number of inner scheduling runs
	// (0 = unlimited). Benchmarks use it for deterministic workloads.
	MaxIterations int
	// Budget, when non-nil, bounds the whole search: deadline, shared node
	// cap and cancellation are honoured between iterations, at pipeline
	// phase boundaries and per node inside floorplan queries. When the
	// budget runs dry mid-search the incumbent (if any) is returned.
	Budget *budget.Budget
	// Faults, when armed, is forwarded to every floorplan query.
	Faults *faultinject.Set
	// Seed initialises the random generator; runs are reproducible.
	Seed int64
	// Workers sets the number of search workers W. 0 defaults to
	// runtime.GOMAXPROCS(0). The global iteration sequence 0,1,2,… is
	// strided across the workers (worker w owns iterations w, w+W, w+2W,
	// …); worker 0 runs on the calling goroutine, each other worker on its
	// own. Every worker draws from its own seeded generator (Seed itself
	// when W = 1) and the incumbents are reduced under a total order, so
	// the result is a pure function of (Seed, Workers, MaxIterations),
	// independent of goroutine interleaving.
	Workers int
	// ModuleReuse is forwarded to the inner scheduler.
	ModuleReuse bool
	// Trace, when non-nil, records the search span, one span per iteration
	// tagged with its outcome (improved / not-improving / infeasible) on
	// its worker's own lane under the search span, and the search counters
	// (package obs). Iteration spans stay at iteration granularity — the
	// inner pipeline phases are not traced, so the overhead per iteration
	// is two clock readings. A nil trace is a no-op and recording never
	// perturbs the seeded search.
	Trace *obs.Trace

	// Initial, when non-nil and non-empty, is the warm platform state every
	// inner run (and the deterministic fallback) schedules from — see
	// Options.Initial. The search remains a pure function of its inputs:
	// the state is a fixed input shared by all iterations and workers.
	Initial *schedule.PlatformState

	// InitialIncumbent, when non-nil, warm-starts the search: it becomes
	// the incumbent before iteration 0, so candidates must beat its
	// makespan before any floorplan query is spent, and it is returned
	// unchanged (the same pointer) when nothing does. The caller owns the
	// schedule and vouches that it is a valid, already-floorplanned
	// schedule of this exact instance — internal/schedcache pairs it by
	// instance digest; a schedule whose task count does not match the graph
	// is ignored. The search stays a pure function of (Seed, Workers,
	// MaxIterations, InitialIncumbent): the incumbent only raises the
	// improvement bar, it never changes which candidates are generated.
	InitialIncumbent *schedule.Schedule
}

// usableIncumbent reports whether a warm-start incumbent can seed the
// search for graph g: it must describe the same task set and carry a
// computed makespan.
func usableIncumbent(inc *schedule.Schedule, g *taskgraph.Graph) bool {
	return inc != nil && len(inc.Tasks) == g.N() && inc.Makespan > 0
}

// Virtual-capacity shrinking on floorplan-infeasible candidates: each
// discard multiplies the worker-local accounting capacity factor by
// capShrink, never below capFloor.
const capShrink, capFloor = 0.92, 0.40

// ImprovementPoint records when the incumbent improved, for the
// anytime-convergence analysis of Fig. 6.
type ImprovementPoint struct {
	// Elapsed is the wall-clock time since the start of the search.
	Elapsed time.Duration
	// Iteration is the inner run that produced the improvement.
	Iteration int
	// Makespan is the improved schedule execution time.
	Makespan int64
}

// RandomStats describes a PA-R search.
type RandomStats struct {
	// Iterations counts inner scheduling runs.
	Iterations int
	// FloorplanCalls counts feasibility queries (only improving schedules
	// are floorplanned, amortising the floorplanner cost — §VI).
	FloorplanCalls int
	// Discarded counts improving schedules rejected as floorplan-infeasible.
	Discarded int
	// CapacityFactor is the final virtual-capacity scaling: PA-R shrinks
	// its accounting capacity whenever a candidate is discarded as
	// unplaceable, steering later iterations toward floorplannable region
	// sets (the randomized counterpart of §V-H's restart-and-shrink). Each
	// worker shrinks its own factor, so decisions stay worker-local; this
	// field reports the smallest final factor across workers.
	CapacityFactor float64
	// History is the search's global-best anytime curve (Fig. 6): the
	// improvements accepted by any worker, ordered by (Elapsed, Iteration),
	// keeping only those strictly below every earlier one and below the
	// warm-start incumbent. Elapsed is non-decreasing, Makespan strictly
	// decreasing, and a non-empty History ends at the returned schedule's
	// makespan.
	History []ImprovementPoint
	// Elapsed is the total search time.
	Elapsed time.Duration
	// SchedulingTime is the time spent in the inner pipeline runs and
	// FloorplanTime the time spent in feasibility queries, the same split
	// Stats reports for PA (Table I).
	SchedulingTime time.Duration
	FloorplanTime  time.Duration
}

// RSchedule runs the randomized scheduler variant (Algorithm 1): the core
// heuristic is re-executed with random non-critical task orderings until
// the budget expires, and an improving schedule is kept only if the
// floorplanner accepts its regions. Each infeasible candidate shrinks the
// worker's virtual accounting capacity by capShrink (never below
// capFloor), steering later iterations toward placeable region sets.
//
// The search is one strided engine at every worker count W: worker w owns
// global iterations w, w+W, w+2W, … and runs runWorker on them. Worker 0
// runs on the calling goroutine, so W = 1 starts no goroutine; workers
// 1…W-1 run on goroutines of their own. Global iteration 0 uses the
// deterministic efficiency ordering (Rand == nil); every other iteration
// draws from its owner's generator, seeded with Seed when W = 1 and with
// mixSeed(Seed, w) otherwise. Everything that steers a worker — generator,
// incumbent, capacity factor, pipeline state, floorplan planner — is its
// own, so each worker's result is a pure function of (Seed, Workers,
// MaxIterations, InitialIncumbent). The reduction picks the final schedule
// under the total order (makespan, worker, global iteration), so the
// returned schedule is independent of goroutine interleaving.
func RSchedule(g *taskgraph.Graph, a *arch.Architecture, opts RandomOptions) (*schedule.Schedule, *RandomStats, error) {
	if opts.TimeBudget <= 0 && opts.MaxIterations <= 0 && opts.Budget == nil {
		return nil, nil, fmt.Errorf("sched: PA-R needs a time budget, an iteration cap or a budget")
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, nil, err
	}
	fabric, err := a.RequireFabric()
	if err != nil {
		return nil, nil, fmt.Errorf("sched: PA-R floorplans improving schedules: %w", err)
	}
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return nil, nil, fmt.Errorf("sched: PA-R workers must be positive, got %d", opts.Workers)
	}

	run := opts.Trace.Start("par.run", obs.Int("seed", opts.Seed), obs.Int("workers", int64(workers)))
	defer run.End()
	start := time.Now()
	// The per-call TimeBudget nests inside the caller's overall budget: the
	// node cap is shared, the parent's cancellation is observed and the
	// deadline tightens, so exhaustion seen by one worker is seen by all.
	// Retiring the child on return leaves the caller's budget untouched
	// (Cancel flows downward only) and stops anything reached after this
	// call from charging against the expired TimeBudget window.
	bud := opts.Budget.WithTimeout(opts.TimeBudget)
	defer bud.Cancel()
	e := &engine{g: g, a: a, fabric: fabric, opts: opts, bud: bud, workers: workers, start: start}
	// A warm-start incumbent is a fixed input: every worker starts with its
	// makespan as the improvement bar. It enters no History record (this
	// search did not find it) and is returned as-is when nothing beats it.
	var incumbent *schedule.Schedule
	if usableIncumbent(opts.InitialIncumbent, g) {
		incumbent, e.bar = opts.InitialIncumbent, opts.InitialIncumbent.Makespan
		opts.Trace.Count("par.incumbent_seeded", 1)
	}
	results := make([]workerResult, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = e.runWorker(w)
		}(w)
	}
	results[0] = e.runWorker(0)
	wg.Wait()

	best, stats, err := reduce(results, e.bar)
	if err != nil {
		return nil, nil, err
	}
	stats.Elapsed = time.Since(start)
	if opts.Trace.Enabled() {
		// Improvement events are emitted here, in global-iteration order,
		// rather than by the workers in goroutine arrival order: the flight
		// recorder stays a pure function of (Seed, Workers, MaxIterations).
		var improved []ImprovementPoint
		for w := range results {
			improved = append(improved, results[w].stats.History...)
		}
		sort.SliceStable(improved, func(i, j int) bool { return improved[i].Iteration < improved[j].Iteration })
		for _, p := range improved {
			opts.Trace.Event("par.improved",
				obs.Int("iteration", int64(p.Iteration)), obs.Int("makespan", p.Makespan))
		}
	}
	opts.Trace.Count("par.iterations", int64(stats.Iterations))
	opts.Trace.Count("par.floorplan_calls", int64(stats.FloorplanCalls))
	opts.Trace.SetGauge("par.capacity_factor", stats.CapacityFactor)
	if best != nil {
		return best, stats, nil
	}
	if incumbent != nil {
		return incumbent, stats, nil
	}
	// Fall back to the deterministic scheduler (with shrinking) so a
	// TimeBudget too small to find a feasible randomized solution still
	// yields an answer. The caller's overall budget (not the expired
	// TimeBudget child) governs the fallback: a cancel or overall deadline
	// fails it with a typed budget error.
	sch, _, err := Schedule(g, a, Options{
		ModuleReuse: opts.ModuleReuse,
		Initial:     opts.Initial,
		Budget:      opts.Budget, Faults: opts.Faults, Trace: opts.Trace,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("sched: PA-R found no feasible schedule: %w", err)
	}
	sch.Algorithm = "PA-R"
	return sch, stats, nil
}

// mixSeed derives worker w's private generator seed from the search seed
// with a SplitMix64 finalising round, so the per-worker streams are
// decorrelated even for adjacent seeds or worker indices. Worker streams are
// a documented part of the output contract: schedules for a fixed
// (Seed, Workers, MaxIterations) with Workers > 1 depend on these exact
// values.
func mixSeed(seed int64, w int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(w+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// engine holds the inputs every worker of one PA-R search shares. Only
// stop is written while the workers run.
type engine struct {
	g       *taskgraph.Graph
	a       *arch.Architecture
	fabric  *arch.Fabric
	opts    RandomOptions
	bud     *budget.Budget
	workers int
	bar     int64 // warm-start incumbent makespan, 0 for none
	start   time.Time
	// stop propagates a hard error: the failing worker raises it and the
	// others exit at their next iteration boundary.
	stop atomic.Bool
}

// workerResult is one worker's contribution to the reduction. Its stats
// carry the worker's own counters, times, final capacity factor and
// improvement points.
type workerResult struct {
	best  *schedule.Schedule
	stats RandomStats
	err   error
}

// runWorker executes worker w's share of the global iteration sequence.
func (e *engine) runWorker(w int) workerResult {
	opts := e.opts
	// The worker records on its own lane forked under par.run (no recorder
	// moves the caller's cursor until every worker has joined), so its
	// iteration and floorplan spans never nest under another worker's.
	tr := opts.Trace.Lane()
	res := workerResult{stats: RandomStats{CapacityFactor: 1.0}}
	seed := opts.Seed
	if e.workers > 1 {
		seed = mixSeed(opts.Seed, w)
	}
	inner := Options{
		ModuleReuse:   opts.ModuleReuse,
		SkipFloorplan: true,
		Rand:          rand.New(rand.NewSource(seed)),
		Budget:        e.bud,
		Initial:       opts.Initial,
		scratch:       getState(),
	}
	defer putState(inner.scratch)
	// Each feasibility query has its own cap so a hard instance cannot eat
	// the whole search budget; an unproven verdict just shrinks the
	// virtual capacity and moves on.
	fpOpts := floorplan.Options{
		MaxNodes: budget.RandomFloorplanNodes,
		Budget:   e.bud, Faults: opts.Faults, Trace: tr,
	}
	planner := floorplan.NewPlanner(e.fabric)
	for giter := w; opts.MaxIterations <= 0 || giter < opts.MaxIterations; giter += e.workers {
		if e.stop.Load() || e.bud.Check() != nil {
			break
		}
		maxRes := e.a.MaxRes
		for k := range maxRes {
			maxRes[k] = int(float64(maxRes[k]) * res.stats.CapacityFactor)
		}
		// The very first run uses the deterministic efficiency ordering —
		// the random search then only has to beat PA's own solution; every
		// later run draws a random non-critical order (Algorithm 1).
		runOpts := inner
		if giter == 0 {
			runOpts.Rand = nil
		}
		it := tr.Start("par.iteration", obs.Int("iteration", int64(giter)), obs.Int("worker", int64(w)))
		innerBegin := time.Now()
		sch, regionRes, err := runPipeline(e.g, e.a, maxRes, runOpts)
		innerElapsed := time.Since(innerBegin)
		res.stats.SchedulingTime += innerElapsed
		tr.Observe("par.iteration_us", float64(innerElapsed.Nanoseconds())/1e3)
		if err != nil {
			if errors.Is(err, budget.ErrExhausted) {
				// The budget ran dry mid-pipeline: stop searching; the
				// reduction returns the incumbent (or the fallback runs).
				it.End(obs.Str("outcome", "budget"))
				break
			}
			it.End(obs.Str("outcome", "error"))
			res.err = err
			e.stop.Store(true)
			break
		}
		res.stats.Iterations++
		// The improvement bar is the worker's own best when it has one,
		// else the warm-start incumbent's makespan (0 means neither).
		limit := e.bar
		if res.best != nil {
			limit = res.best.Makespan
		}
		if limit > 0 && sch.Makespan >= limit {
			it.End(obs.Str("outcome", "not-improving"))
			continue
		}
		// Improving schedule: validate the floorplan before accepting.
		res.stats.FloorplanCalls++
		fpBegin := time.Now()
		fp, err := planner.Solve(regionRes, fpOpts)
		res.stats.FloorplanTime += time.Since(fpBegin)
		if err != nil {
			it.End(obs.Str("outcome", "error"))
			res.err = err
			e.stop.Store(true)
			break
		}
		if !fp.Feasible {
			res.stats.Discarded++
			tr.Count("par.discarded", 1)
			if res.stats.CapacityFactor > capFloor {
				res.stats.CapacityFactor *= capShrink
			}
			it.End(obs.Str("outcome", "infeasible"))
			continue
		}
		sch.Algorithm = "PA-R"
		res.best = sch
		tr.Count("par.improvements", 1)
		res.stats.History = append(res.stats.History, ImprovementPoint{
			Elapsed:   time.Since(e.start),
			Iteration: giter + 1,
			Makespan:  sch.Makespan,
		})
		it.End(obs.Str("outcome", "improved"), obs.Int("makespan", sch.Makespan))
	}
	return res
}

// reduce folds the worker results into the search result: the best
// schedule under the total order (makespan, worker, global iteration), the
// summed counters and times, the smallest final capacity factor and the
// global-best History. bar is the warm-start incumbent's makespan (0 for
// none). The first worker error, in worker order, fails the search.
func reduce(results []workerResult, bar int64) (*schedule.Schedule, *RandomStats, error) {
	stats := &RandomStats{CapacityFactor: 1.0}
	var best *schedule.Schedule
	var points []ImprovementPoint
	for w := range results {
		r := &results[w]
		if r.err != nil {
			return nil, nil, r.err
		}
		stats.Iterations += r.stats.Iterations
		stats.FloorplanCalls += r.stats.FloorplanCalls
		stats.Discarded += r.stats.Discarded
		stats.SchedulingTime += r.stats.SchedulingTime
		stats.FloorplanTime += r.stats.FloorplanTime
		stats.CapacityFactor = min(stats.CapacityFactor, r.stats.CapacityFactor)
		points = append(points, r.stats.History...)
		// A worker's best is its only schedule at that makespan (its own
		// improvements strictly decrease), and workers are visited in
		// index order, so a strict comparison breaks ties toward the lower
		// worker and then the earlier iteration.
		if r.best != nil && (best == nil || r.best.Makespan < best.Makespan) {
			best = r.best
		}
	}
	stats.History = globalBest(points, bar)
	return best, stats, nil
}

// globalBest turns the workers' improvement points into the search's
// anytime curve (Fig. 6): ordered by (Elapsed, Iteration), keeping only
// points strictly below every earlier kept point and below the warm-start
// bar (0 for none). One worker's points are already such a curve, so with
// W = 1 this is the identity.
func globalBest(points []ImprovementPoint, bar int64) []ImprovementPoint {
	sort.Slice(points, func(i, j int) bool {
		if points[i].Elapsed != points[j].Elapsed {
			return points[i].Elapsed < points[j].Elapsed
		}
		return points[i].Iteration < points[j].Iteration
	})
	kept := points[:0]
	for _, p := range points {
		if (bar > 0 && p.Makespan >= bar) || (len(kept) > 0 && p.Makespan >= kept[len(kept)-1].Makespan) {
			continue
		}
		kept = append(kept, p)
	}
	return kept
}
