package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/floorplan"
	"resched/internal/obs"
	"resched/internal/resources"
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
	// Workers sets the number of search goroutines. 0 defaults to
	// runtime.GOMAXPROCS(0); 1 runs the historical sequential search
	// unchanged (byte-identical schedules and RNG stream). With W > 1 the
	// global iteration sequence 0,1,2,… is strided across workers (worker w
	// owns iterations w, w+W, w+2W, …), each worker draws from its own
	// seeded generator, and the incumbents are reduced under a total order
	// — so the result is a pure function of (Seed, Workers, MaxIterations),
	// independent of goroutine interleaving.
	Workers int
	// ModuleReuse is forwarded to the inner scheduler.
	ModuleReuse bool
	// Floorplan configures the feasibility queries on improving solutions.
	Floorplan floorplan.Options
	// Trace, when non-nil, records the search span, one span per iteration
	// tagged with its outcome (improved / not-improving / infeasible) and
	// the search counters (package obs). Iteration spans stay at iteration
	// granularity — the inner pipeline phases are not traced, so the
	// overhead per iteration is two clock readings. A nil trace is a no-op
	// and recording never perturbs the seeded search.
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
// discard multiplies the (worker-local) accounting capacity factor by
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
	// sets (the randomized counterpart of §V-H's restart-and-shrink). In a
	// parallel search each worker shrinks its own factor (decisions stay
	// worker-local so the search is interleaving-independent); this field
	// reports the minimum across workers, maintained as a shared
	// monotonically non-increasing value.
	CapacityFactor float64
	// History records every accepted improvement. After a parallel search
	// the per-worker histories are merged and sorted, so Elapsed is always
	// monotone non-decreasing across the slice; Makespan is strictly
	// decreasing per worker but only the final entry is the global best.
	History []ImprovementPoint
	// Elapsed is the total search time.
	Elapsed time.Duration
	// SchedulingTime is the time spent in the inner pipeline runs and
	// FloorplanTime the time spent in feasibility queries, the same split
	// Stats reports for PA (Table I).
	SchedulingTime time.Duration
	FloorplanTime  time.Duration
}

// RSchedule runs the randomized scheduler variant: the core heuristic is
// re-executed with random non-critical task orderings until the budget
// expires; an improving schedule is kept only if the floorplanner accepts
// its regions, and infeasible candidates are simply discarded (no virtual
// resource shrinking, unlike the deterministic variant).
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
	if opts.Floorplan.Trace == nil {
		opts.Floorplan.Trace = opts.Trace
	}
	if workers > 1 {
		return rscheduleParallel(g, a, fabric, opts, workers)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	start := time.Now()
	// The per-call TimeBudget nests inside the caller's overall budget: the
	// node cap is shared, the parent's cancellation is observed and the
	// deadline tightens. Retiring the child on return keeps the caller's
	// budget untouched (Cancel flows downward only) while making sure no
	// code reached after this call can still charge against the expired
	// TimeBudget window.
	bud := opts.Budget.WithTimeout(opts.TimeBudget)
	defer bud.Cancel()
	stats := &RandomStats{}
	var best *schedule.Schedule
	if usableIncumbent(opts.InitialIncumbent, g) {
		// Warm start: the cached schedule is the incumbent from iteration 0.
		// It enters no History record (it is not an improvement this search
		// found) and, if nothing beats it, is returned as-is.
		best = opts.InitialIncumbent
		opts.Trace.Count("par.incumbent_seeded", 1)
	}

	inner := Options{
		ModuleReuse:   opts.ModuleReuse,
		SkipFloorplan: true,
		Rand:          rng,
		Budget:        bud,
		Initial:       opts.Initial,
		scratch:       &state{},
	}
	capFactor := 1.0
	planner := floorplan.NewPlanner(fabric)
	for {
		if opts.MaxIterations > 0 && stats.Iterations >= opts.MaxIterations {
			break
		}
		if bud.Check() != nil {
			break
		}
		maxRes := a.MaxRes
		for k := range maxRes {
			maxRes[k] = int(float64(maxRes[k]) * capFactor)
		}
		// The very first run uses the deterministic efficiency ordering —
		// the random search then only has to beat PA's own solution; every
		// later run draws a random non-critical order (Algorithm 1).
		runOpts := inner
		if stats.Iterations == 0 {
			runOpts.Rand = nil
		}
		it := opts.Trace.Start("par.iteration",
			obs.Int("iteration", int64(stats.Iterations)), obs.Int("worker", 0))
		// Run at least one iteration even with a tiny budget.
		innerBegin := time.Now()
		sch, regionRes, err := runPipeline(g, a, maxRes, runOpts)
		innerElapsed := time.Since(innerBegin)
		stats.SchedulingTime += innerElapsed
		opts.Trace.Observe("par.iteration_us", float64(innerElapsed.Nanoseconds())/1e3)
		if err != nil {
			if errors.Is(err, budget.ErrExhausted) {
				// The budget ran dry mid-pipeline: stop searching and fall
				// through to return the incumbent (or the fallback below).
				it.End(obs.Str("outcome", "budget"))
				break
			}
			it.End(obs.Str("outcome", "error"))
			return nil, nil, err
		}
		stats.Iterations++
		if best != nil && sch.Makespan >= best.Makespan {
			it.End(obs.Str("outcome", "not-improving"))
			continue
		}
		// Improving schedule: validate the floorplan before accepting.
		stats.FloorplanCalls++
		fpOpts := opts.Floorplan
		if fpOpts.Budget == nil {
			fpOpts.Budget = bud
		}
		if fpOpts.Faults == nil {
			fpOpts.Faults = opts.Faults
		}
		if fpOpts.MaxNodes == 0 {
			// Bound each feasibility query so a hard instance cannot eat
			// the whole search budget; an unproven verdict just shrinks the
			// virtual capacity and moves on.
			fpOpts.MaxNodes = 20000
		}
		fpBegin := time.Now()
		res, err := planner.Solve(regionRes, fpOpts)
		stats.FloorplanTime += time.Since(fpBegin)
		if err != nil {
			it.End(obs.Str("outcome", "error"))
			return nil, nil, err
		}
		if !res.Feasible {
			stats.Discarded++
			opts.Trace.Count("par.discarded", 1)
			if capFactor > capFloor {
				capFactor *= capShrink
			}
			it.End(obs.Str("outcome", "infeasible"))
			continue
		}
		sch.Algorithm = "PA-R"
		best = sch
		opts.Trace.Count("par.improvements", 1)
		// A sequential search may record the incumbent improvement inline:
		// iteration order is the event order, so the flight recorder stays
		// deterministic (the parallel search defers this to the merge).
		opts.Trace.Event("par.improved",
			obs.Int("iteration", int64(stats.Iterations)), obs.Int("makespan", sch.Makespan))
		stats.History = append(stats.History, ImprovementPoint{
			Elapsed:   time.Since(start),
			Iteration: stats.Iterations,
			Makespan:  sch.Makespan,
		})
		it.End(obs.Str("outcome", "improved"), obs.Int("makespan", sch.Makespan))
	}
	stats.Elapsed = time.Since(start)
	stats.CapacityFactor = capFactor
	opts.Trace.Count("par.iterations", int64(stats.Iterations))
	opts.Trace.Count("par.floorplan_calls", int64(stats.FloorplanCalls))
	opts.Trace.SetGauge("par.capacity_factor", capFactor)
	if best == nil {
		// Fall back to the deterministic scheduler (with shrinking) so a
		// TimeBudget too small to find a feasible randomized solution still
		// yields an answer. The caller's overall budget (not the expired
		// TimeBudget child) governs the fallback: a cancel or overall
		// deadline fails it with a typed budget error.
		sch, _, err := Schedule(g, a, Options{
			ModuleReuse: opts.ModuleReuse, Floorplan: opts.Floorplan,
			Initial: opts.Initial,
			Budget:  opts.Budget, Faults: opts.Faults, Trace: opts.Trace,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("sched: PA-R found no feasible schedule: %w", err)
		}
		sch.Algorithm = "PA-R"
		return sch, stats, nil
	}
	return best, stats, nil
}

// regionRequirements extracts the region resource vectors of a schedule,
// for callers that floorplan separately.
func regionRequirements(sch *schedule.Schedule) []resources.Vector {
	out := make([]resources.Vector, len(sch.Regions))
	for i, r := range sch.Regions {
		out[i] = r.Res
	}
	return out
}
