package solve

import (
	"errors"
	"fmt"
	"strconv"
	"time"

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

// ExactMaxTasks bounds the instance size the exact reference accepts: its
// search is factorial in |T|.
const ExactMaxTasks = 11

// exactSolver is the exhaustive non-delay reference: IS-k with one window
// covering the whole graph (K = |T|), searched exhaustively and without
// floorplanning. Every scheduling decision — implementation selection,
// processor/region mapping, region creation, module reuse and
// reconfiguration placement — is branched on, and every action starts as
// early as its resources allow given the decisions taken so far.
// Makespan-optimal schedules outside that non-delay class (which insert
// deliberate idle time) are rare on these workloads, so the result is a
// strong lower-bound proxy the optimality-gap experiment positions PA, PA-R
// and IS-k against, not a certified optimum. The search stops at
// budget.ExactNodes and keeps its best schedule (ExactStats.Proven false).
type exactSolver struct{}

func (exactSolver) Name() string { return "exact" }

func (exactSolver) Solve(req *Request) (*Result, error) {
	if req.Initial != nil && !req.Initial.Empty() {
		return nil, errors.New("solve: the exact reference enumerates cold schedules only; it cannot start from a warm platform state")
	}
	if n := req.Graph.N(); n > ExactMaxTasks {
		return nil, fmt.Errorf("solve: %d tasks exceed the exact reference's limit of %d", n, ExactMaxTasks)
	}
	start := time.Now()
	sch, stats, err := isk.Schedule(req.Graph, req.Arch, isk.Options{
		K:             req.Graph.N(),
		Exhaustive:    true,
		SkipFloorplan: true,
		ModuleReuse:   req.ModuleReuse,
		Budget:        req.Budget,
		Faults:        req.Faults,
		Trace:         req.Trace,
	})
	if err != nil {
		return nil, err
	}
	sch.Algorithm = "EXACT"
	return &Result{
		Schedule:       sch,
		Makespan:       sch.Makespan,
		SchedulingTime: time.Since(start),
		Iterations:     1,
		Exact: &ExactStats{
			Nodes:  stats.Nodes,
			Proven: stats.CappedWindows == 0,
		},
	}, nil
}
