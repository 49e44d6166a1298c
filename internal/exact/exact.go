// Package exact provides an optimality reference for tiny instances: an
// exhaustive branch-and-bound over every scheduling decision —
// implementation selection, processor/region mapping, region creation,
// module reuse and reconfiguration placement — in a single window covering
// the whole task graph.
//
// The search space is the *non-delay* schedule class: every action starts
// as early as its resources allow given the decisions taken so far.
// Makespan-optimal schedules outside that class (which insert deliberate
// idle time) are rare on these workloads; the result is therefore a strong
// lower-bound proxy used by the optimality-gap experiment to position PA,
// PA-R and IS-k, not a certified optimum.
//
// Complexity is factorial in |T|; instances beyond ~10 tasks are rejected.
package exact

import (
	"fmt"
	"time"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/isk"
	"resched/internal/obs"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// MaxTasks bounds the instance size the exhaustive search accepts.
const MaxTasks = 11

// Options tune the reference search.
type Options struct {
	// ModuleReuse and Prefetch mirror the IS-k capabilities.
	ModuleReuse bool
	Prefetch    bool
	// Budget, when non-nil, bounds the search as it bounds an IS-k run:
	// charged per node, so a cancel or deadline lands in milliseconds, and
	// on exhaustion Schedule returns an error matching budget.ErrExhausted.
	Budget *budget.Budget
	// Faults and Trace are forwarded to the IS-k run (isk.Options).
	Faults *faultinject.Set
	Trace  *obs.Trace
}

// Stats describes the search effort.
type Stats struct {
	// Nodes explored by the branch and bound.
	Nodes int
	// Proven is true when the search completed within budget.ExactNodes;
	// on overflow the best incumbent is returned and Proven is false.
	Proven bool
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
}

// Schedule exhaustively searches the non-delay schedule space of a tiny
// instance and returns the best schedule found.
func Schedule(g *taskgraph.Graph, a *arch.Architecture, opts Options) (*schedule.Schedule, *Stats, error) {
	if g.N() > MaxTasks {
		return nil, nil, fmt.Errorf("exact: %d tasks exceed the exhaustive-search limit of %d", g.N(), MaxTasks)
	}
	start := time.Now()
	sch, ist, err := isk.Schedule(g, a, isk.Options{
		K:             g.N(),
		Exhaustive:    true,
		ModuleReuse:   opts.ModuleReuse,
		Prefetch:      opts.Prefetch,
		SkipFloorplan: true,
		Budget:        opts.Budget,
		Faults:        opts.Faults,
		Trace:         opts.Trace,
	})
	if err != nil {
		return nil, nil, err
	}
	sch.Algorithm = "EXACT"
	return sch, &Stats{
		Nodes:   ist.Nodes,
		Proven:  ist.CappedWindows == 0,
		Elapsed: time.Since(start),
	}, nil
}
