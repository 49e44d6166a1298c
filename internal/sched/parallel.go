package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/floorplan"
	"resched/internal/obs"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// mixSeed derives worker w's private generator seed from the search seed
// with a SplitMix64 finalising round, so the per-worker streams are
// decorrelated even for adjacent seeds or worker indices. Worker streams are
// a documented part of the output contract: schedules for a fixed
// (Seed, Workers, MaxIterations) depend on these exact values.
func mixSeed(seed int64, w int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(w+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// sharedCapFactor is the monotonically non-increasing capacity-factor
// aggregate reported by RandomStats.CapacityFactor for a parallel search.
// Workers lower it whenever their local factor shrinks; it never rises.
// It is reporting-only: scheduling decisions use the worker-local factors
// exclusively, which is what keeps the search independent of goroutine
// interleaving.
type sharedCapFactor struct {
	mu  sync.Mutex
	min float64
}

func (c *sharedCapFactor) lower(v float64) {
	c.mu.Lock()
	if v < c.min {
		c.min = v
	}
	c.mu.Unlock()
}

func (c *sharedCapFactor) value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.min
}

// parResult is one worker's contribution to the reduction.
type parResult struct {
	best      *schedule.Schedule
	bestIter  int // global iteration that produced best (for the total order)
	stats     RandomStats
	capFactor float64
	err       error
}

// rscheduleParallel is the PA-R search with a worker pool (Workers > 1).
//
// Iteration assignment is strided: worker w owns global iterations
// w, w+W, w+2W, … — the same global sequence 0,1,2,… a sequential search
// walks, partitioned statically so no cross-worker coordination decides who
// runs what. Global iteration 0 keeps the sequential search's special case
// (the deterministic efficiency ordering, Rand == nil); every other
// iteration draws from its owner's private generator seeded with
// mixSeed(Seed, w), consumed strictly in the worker's own iteration order.
// Each worker keeps a private incumbent, capacity factor, scratch arena and
// floorplan planner, so nothing a worker computes depends on any other
// worker's progress.
//
// The reduction picks the final schedule under the total order
// (makespan, worker index, global iteration): lowest makespan wins, ties go
// to the lowest worker index and then the earliest iteration. Since every
// per-worker result is a pure function of (Seed, Workers, MaxIterations)
// and the order is total, the returned schedule is bit-identical across
// runs regardless of interleaving.
func rscheduleParallel(g *taskgraph.Graph, a *arch.Architecture, fabric *arch.Fabric, opts RandomOptions, workers int) (*schedule.Schedule, *RandomStats, error) {
	start := time.Now()
	// One timeout child shared by every worker: deadline and node cap live
	// in the shared budget state, so exhaustion observed by one worker is
	// observed by all at their next check. The deferred Cancel retires the
	// child once every worker has joined; it cannot poison the caller's
	// budget tree because Cancel flows downward only.
	bud := opts.Budget.WithTimeout(opts.TimeBudget)
	defer bud.Cancel()
	shared := &sharedCapFactor{min: 1.0}
	// stop propagates a hard error: the failing worker raises the flag and
	// the others exit at their next iteration boundary without cancelling
	// the shared child — the survivors' partial results stay comparable.
	var stop atomic.Bool

	// A warm-start incumbent is a fixed input, so handing its makespan to
	// every worker as the initial improvement bar keeps the workers
	// independent of each other: each still computes a pure function of
	// (Seed, Workers, MaxIterations, InitialIncumbent).
	var incumbent *schedule.Schedule
	var bar int64 // 0 = no bar
	if usableIncumbent(opts.InitialIncumbent, g) {
		incumbent, bar = opts.InitialIncumbent, opts.InitialIncumbent.Makespan
		opts.Trace.Count("par.incumbent_seeded", 1)
	}

	results := make([]parResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = runParWorker(g, a, fabric, opts, bud, shared, &stop, w, workers, bar, start)
		}(w)
	}
	wg.Wait()

	stats := &RandomStats{CapacityFactor: shared.value()}
	var best *schedule.Schedule
	bestWorker, bestIter := -1, -1
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
		stats.History = append(stats.History, r.stats.History...)
		if r.best == nil {
			continue
		}
		if best == nil || r.best.Makespan < best.Makespan ||
			(r.best.Makespan == best.Makespan && (w < bestWorker ||
				(w == bestWorker && r.bestIter < bestIter))) {
			best, bestWorker, bestIter = r.best, w, r.bestIter
		}
	}
	// Per-worker histories are each strictly improving; the merged view is
	// ordered by wall-clock so the anytime-convergence plots read left to
	// right. Ties keep worker order (stable sort), which also keeps the
	// slice deterministic under the fake clocks tests install.
	sort.SliceStable(stats.History, func(i, j int) bool {
		return stats.History[i].Elapsed < stats.History[j].Elapsed
	})
	stats.Elapsed = time.Since(start)
	// Incumbent-improvement events are deferred to the merge and emitted in
	// global-iteration order (each global iteration belongs to exactly one
	// worker, so the key is unique): emitting them inline from the workers
	// would record them in goroutine arrival order, and the wall-clock
	// Elapsed ordering above legitimately varies between repetitions. This
	// keeps the flight recorder deterministic for a fixed (Seed, Workers,
	// MaxIterations).
	if opts.Trace.Enabled() {
		improved := append([]ImprovementPoint(nil), stats.History...)
		// Iteration is unique across the merged histories (one owner per
		// global iteration), so stability is moot — but SliceStable keeps
		// the sortstable gate satisfied without a second key.
		sort.SliceStable(improved, func(i, j int) bool {
			return improved[i].Iteration < improved[j].Iteration
		})
		for _, p := range improved {
			opts.Trace.Event("par.improved",
				obs.Int("iteration", int64(p.Iteration)), obs.Int("makespan", p.Makespan))
		}
	}
	opts.Trace.Count("par.iterations", int64(stats.Iterations))
	opts.Trace.Count("par.floorplan_calls", int64(stats.FloorplanCalls))
	opts.Trace.SetGauge("par.capacity_factor", stats.CapacityFactor)
	if best == nil && incumbent != nil {
		// No worker beat the warm-start bar: the incumbent stands.
		return incumbent, stats, nil
	}
	if best == nil {
		// Same fallback as the sequential search: the deterministic
		// scheduler under the caller's overall budget.
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

// runParWorker executes worker w's share of the global iteration sequence.
// Everything that influences scheduling decisions is worker-local: the
// generator, the incumbent that gates floorplan queries, the capacity
// factor, the scratch arena and the floorplan planner.
func runParWorker(g *taskgraph.Graph, a *arch.Architecture, fabric *arch.Fabric, opts RandomOptions, bud *budget.Budget, shared *sharedCapFactor, stop *atomic.Bool, w, workers int, bar int64, start time.Time) parResult {
	res := parResult{capFactor: 1.0}
	rng := rand.New(rand.NewSource(mixSeed(opts.Seed, w)))
	inner := Options{
		ModuleReuse:   opts.ModuleReuse,
		SkipFloorplan: true,
		Rand:          rng,
		Budget:        bud,
		Initial:       opts.Initial,
		scratch:       &state{},
	}
	planner := floorplan.NewPlanner(fabric)
	for k := 0; ; k++ {
		giter := w + k*workers
		if opts.MaxIterations > 0 && giter >= opts.MaxIterations {
			break
		}
		if stop.Load() || bud.Check() != nil {
			break
		}
		maxRes := a.MaxRes
		for j := range maxRes {
			maxRes[j] = int(float64(maxRes[j]) * res.capFactor)
		}
		runOpts := inner
		if giter == 0 {
			// Global iteration 0 is the deterministic efficiency ordering,
			// exactly as in the sequential search; the generator is not
			// consumed.
			runOpts.Rand = nil
		}
		// Iteration spans are detached roots: the trace's nesting stack is a
		// single sequential chain, so concurrent workers must not push onto
		// it (see obs.StartRoot).
		it := opts.Trace.StartRoot("par.iteration",
			obs.Int("iteration", int64(giter)), obs.Int("worker", int64(w)))
		innerBegin := time.Now()
		sch, regionRes, err := runPipeline(g, a, maxRes, runOpts)
		innerElapsed := time.Since(innerBegin)
		res.stats.SchedulingTime += innerElapsed
		opts.Trace.Observe("par.iteration_us", float64(innerElapsed.Nanoseconds())/1e3)
		if err != nil {
			if errors.Is(err, budget.ErrExhausted) {
				it.End(obs.Str("outcome", "budget"))
				break
			}
			it.End(obs.Str("outcome", "error"))
			res.err = err
			stop.Store(true)
			break
		}
		res.stats.Iterations++
		// The improvement bar is the worker's own best when it has one, else
		// the warm-start incumbent's makespan (bar == 0 means neither).
		limit := bar
		if res.best != nil {
			limit = res.best.Makespan
		}
		if limit > 0 && sch.Makespan >= limit {
			it.End(obs.Str("outcome", "not-improving"))
			continue
		}
		res.stats.FloorplanCalls++
		fpOpts := opts.Floorplan
		if fpOpts.Budget == nil {
			fpOpts.Budget = bud
		}
		if fpOpts.Faults == nil {
			fpOpts.Faults = opts.Faults
		}
		if fpOpts.MaxNodes == 0 {
			fpOpts.MaxNodes = 20000
		}
		fpBegin := time.Now()
		fp, err := planner.Solve(regionRes, fpOpts)
		res.stats.FloorplanTime += time.Since(fpBegin)
		if err != nil {
			it.End(obs.Str("outcome", "error"))
			res.err = err
			stop.Store(true)
			break
		}
		if !fp.Feasible {
			res.stats.Discarded++
			opts.Trace.Count("par.discarded", 1)
			if res.capFactor > capFloor {
				res.capFactor *= capShrink
				shared.lower(res.capFactor)
			}
			it.End(obs.Str("outcome", "infeasible"))
			continue
		}
		sch.Algorithm = "PA-R"
		res.best, res.bestIter = sch, giter
		opts.Trace.Count("par.improvements", 1)
		res.stats.History = append(res.stats.History, ImprovementPoint{
			Elapsed:   time.Since(start),
			Iteration: giter + 1,
			Makespan:  sch.Makespan,
		})
		it.End(obs.Str("outcome", "improved"), obs.Int("makespan", sch.Makespan))
	}
	return res
}
