package solve

import (
	"errors"
	"strconv"

	"resched/internal/exact"
	"resched/internal/isk"
	"resched/internal/sched"
)

// The built-in roster: every scheduling algorithm in the repository,
// registered under the names the paper's evaluation uses. The adapters
// below are the only place a raw per-algorithm option struct is assembled
// from the cross-cutting Options (enforced by the solvecheck analyzer).
func init() {
	Register(paSolver{})
	Register(parSolver{})
	Register(iskSolver{k: 1})
	Register(iskSolver{k: 5})
	Register(exactSolver{})
	Register(robustSolver{})
}

// paSolver adapts the deterministic PA heuristic (sched.Schedule, §V).
type paSolver struct{}

func (paSolver) Name() string { return "pa" }

func (paSolver) Solve(req *Request) (*Result, error) {
	sch, stats, err := sched.Schedule(req.Graph, req.Arch, sched.Options{
		ModuleReuse:   req.ModuleReuse,
		SkipFloorplan: req.SkipFloorplan,
		Arena:         req.Arena,
		Initial:       req.Initial,
		FloorplanHint: req.FloorplanHint,
		Budget:        req.Budget,
		Faults:        req.Faults,
		Trace:         req.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Schedule:       sch,
		Makespan:       sch.Makespan,
		Placements:     stats.Placements,
		SchedulingTime: stats.SchedulingTime,
		FloorplanTime:  stats.FloorplanTime,
		Retries:        stats.Retries,
		Iterations:     stats.Attempts,
	}, nil
}

// parSolver adapts the randomized PA-R search (sched.RSchedule, §VI).
type parSolver struct{}

func (parSolver) Name() string { return "par" }

func (parSolver) Solve(req *Request) (*Result, error) {
	sch, stats, err := sched.RSchedule(req.Graph, req.Arch, sched.RandomOptions{
		TimeBudget:       req.TimeBudget,
		MaxIterations:    req.MaxIterations,
		Seed:             req.Seed,
		Workers:          req.Workers,
		ModuleReuse:      req.ModuleReuse,
		Initial:          req.Initial,
		InitialIncumbent: req.InitialIncumbent,
		Budget:           req.Budget,
		Faults:           req.Faults,
		Trace:            req.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Schedule:       sch,
		Makespan:       sch.Makespan,
		SchedulingTime: stats.SchedulingTime,
		FloorplanTime:  stats.FloorplanTime,
		Retries:        stats.Discarded,
		Iterations:     stats.Iterations,
		Search: &SearchStats{
			FloorplanCalls: stats.FloorplanCalls,
			Discarded:      stats.Discarded,
			Improvements:   len(stats.History),
			CapacityFactor: stats.CapacityFactor,
			History:        stats.History,
			Elapsed:        stats.Elapsed,
		},
	}, nil
}

// iskSolver adapts the IS-k baseline (isk.Schedule, ref [6]); one instance
// per window size is registered ("is1", "is5").
type iskSolver struct{ k int }

func (s iskSolver) Name() string { return "is" + strconv.Itoa(s.k) }

func (s iskSolver) Solve(req *Request) (*Result, error) {
	sch, stats, err := isk.Schedule(req.Graph, req.Arch, isk.Options{
		K:             s.k,
		ModuleReuse:   req.ModuleReuse,
		SkipFloorplan: req.SkipFloorplan,
		Initial:       req.Initial,
		Budget:        req.Budget,
		Faults:        req.Faults,
		Trace:         req.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Schedule:       sch,
		Makespan:       sch.Makespan,
		Placements:     stats.Placements,
		SchedulingTime: stats.SchedulingTime,
		FloorplanTime:  stats.FloorplanTime,
		Retries:        stats.Retries,
		Iterations:     stats.Windows,
		Window: &WindowStats{
			Windows: stats.Windows,
			Nodes:   stats.Nodes,
		},
	}, nil
}

// exactSolver adapts the exhaustive non-delay reference (exact.Schedule).
type exactSolver struct{}

func (exactSolver) Name() string { return "exact" }

func (exactSolver) Solve(req *Request) (*Result, error) {
	if req.Initial != nil && !req.Initial.Empty() {
		return nil, errors.New("solve: the exact reference enumerates cold schedules only; it cannot start from a warm platform state")
	}
	sch, stats, err := exact.Schedule(req.Graph, req.Arch, exact.Options{
		ModuleReuse: req.ModuleReuse,
		Budget:      req.Budget,
		Faults:      req.Faults,
		Trace:       req.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Schedule:       sch,
		Makespan:       sch.Makespan,
		SchedulingTime: stats.Elapsed,
		Iterations:     1,
		Exact: &ExactStats{
			Nodes:  stats.Nodes,
			Proven: stats.Proven,
		},
	}, nil
}

// robustSolver adapts the degradation ladder (sched.Robust).
type robustSolver struct{}

func (robustSolver) Name() string { return "robust" }

func (robustSolver) Solve(req *Request) (*Result, error) {
	res, err := sched.Robust(req.Graph, req.Arch, sched.RobustOptions{
		ModuleReuse:      req.ModuleReuse,
		RandomIterations: req.MaxIterations,
		RandomTime:       req.TimeBudget,
		RandomSeed:       req.Seed,
		Arena:            req.Arena,
		Initial:          req.Initial,
		FloorplanHint:    req.FloorplanHint,
		InitialIncumbent: req.InitialIncumbent,
		Budget:           req.Budget,
		Faults:           req.Faults,
		Trace:            req.Trace,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Schedule:   res.Schedule,
		Makespan:   res.Schedule.Makespan,
		Placements: res.Placements,
		Ladder: &LadderStats{
			Rung:     res.Rung,
			Degraded: len(res.Reasons) > 0,
			Reasons:  res.ReasonSummary(),
		},
	}
	if res.Stats != nil {
		out.SchedulingTime = res.Stats.SchedulingTime
		out.FloorplanTime = res.Stats.FloorplanTime
		out.Retries = res.Stats.Retries
		out.Iterations = res.Stats.Attempts
	}
	return out, nil
}
