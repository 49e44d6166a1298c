// Package isk implements the IS-k baseline scheduler the paper compares
// against (Deiana et al., ReConFig 2015 — ref [6]): an iterative approach
// that optimally schedules the next k tasks at a time, given all previous
// decisions, on an architecture with processor cores and a partially
// reconfigurable FPGA. The original uses a Gurobi MILP per iteration; this
// implementation substitutes an exact branch-and-bound over the window's
// decisions (implementation choice, region/processor mapping, execution
// order), which returns the same window optima without the external solver.
//
// Supported features mirror ref [6]: reconfigurations as explicit tasks on
// a single reconfiguration controller, reconfiguration prefetching (a
// region may be reconfigured any time between its previous execution and
// the next task's start), module reuse (consecutive tasks in a region
// sharing an implementation skip the reconfiguration), and per-task
// implementation menus spanning hardware and software.
package isk

import (
	"fmt"
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

// Options configure an IS-k run.
type Options struct {
	// K is the window size (IS-1, IS-5, ... of the paper). Default 1.
	K int
	// ModuleReuse enables reuse of loaded modules (the paper's §VII-A
	// notes IS-k exploits it on the shared-implementation suite).
	ModuleReuse bool
	// Prefetch allows a reconfiguration to be scheduled before the
	// outgoing task's dependencies complete, exploiting idle ICAP slots.
	// Ref [6] (the IS-k the paper compares against) does not claim this
	// feature — the paper attributes it to ref [8] — so it defaults to
	// off; it is kept as an option for ablation studies.
	Prefetch bool
	// MaxWindowNodes caps the branch-and-bound nodes per window; on
	// overflow the best incumbent is kept (0 = 50 000). The cap plays the
	// role of the MILP time limit in ref [6].
	MaxWindowNodes int
	// Exhaustive disables the per-implementation region shortlist so the
	// window search enumerates every compatible region. Package exact uses
	// this with K = |T| to search the whole non-delay schedule space.
	Exhaustive bool
	// SkipFloorplan omits the floorplanning feasibility loop.
	SkipFloorplan bool
	// Floorplan configures the feasibility query.
	Floorplan floorplan.Options
	// Initial, when non-nil and non-empty, is the warm platform state the
	// run schedules from (schedule.PlatformState, produced by
	// schedule.Freeze): warm regions become committed regions 0..n-1, their
	// busy-until floors seed the timelines, release floors feed ready(),
	// and pinned tasks execute first in their regions with the committed
	// implementation. A nil or Empty state is the historical t=0 run.
	Initial *schedule.PlatformState
	// MaxRetries bounds the shrink-and-restart loop (default 20), the
	// same §V-H policy the paper applies around its schedulers.
	MaxRetries int
	// ShrinkFactor is the virtual capacity reduction per retry
	// (default 0.93: retries are cheap, so shrink gently).
	ShrinkFactor float64
	// Budget, when non-nil, bounds the whole run: it is checked at every
	// attempt boundary, charged per node inside the window branch-and-bound
	// and inside floorplan queries, so a cancel lands in milliseconds. On
	// exhaustion Schedule returns an error matching budget.ErrExhausted.
	Budget *budget.Budget
	// Faults, when armed, is forwarded to the floorplanner (and its MILP
	// engine) to drive failure paths deterministically in tests.
	Faults *faultinject.Set
	// Trace, when non-nil, records spans for the run, each shrink-retry
	// attempt and each window solve (with its branch-and-bound node count),
	// plus window/node counters (package obs). A nil trace is a no-op and
	// recording never perturbs the window search.
	Trace *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 1
	}
	if o.MaxWindowNodes == 0 {
		o.MaxWindowNodes = 50000
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 20
	}
	if o.ShrinkFactor == 0 {
		o.ShrinkFactor = 0.93
	}
	return o
}

// Stats describes an IS-k run.
type Stats struct {
	// Windows is the number of k-task windows solved.
	Windows int
	// Nodes is the total branch-and-bound nodes across windows.
	Nodes int
	// SchedulingTime and FloorplanTime split the runtime as in Table I.
	SchedulingTime time.Duration
	FloorplanTime  time.Duration
	// Retries counts shrink-and-restart rounds.
	Retries int
	// Placements is the verified floorplan (empty when SkipFloorplan).
	Placements []floorplan.Placement
}

// Schedule runs IS-k on the instance.
func Schedule(g *taskgraph.Graph, a *arch.Architecture, opts Options) (*schedule.Schedule, *Stats, error) {
	opts = opts.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, nil, err
	}
	runSpan := opts.Trace.Start("isk.run", obs.Int("k", int64(opts.K)))
	defer runSpan.End()
	if opts.Floorplan.Trace == nil {
		opts.Floorplan.Trace = opts.Trace
	}
	if opts.Floorplan.Budget == nil {
		opts.Floorplan.Budget = opts.Budget
	}
	if opts.Floorplan.Faults == nil {
		opts.Floorplan.Faults = opts.Faults
	}
	stats := &Stats{}
	maxRes := a.MaxRes
	var planner *floorplan.Planner // one for every shrink retry
	for attempt := 0; ; attempt++ {
		if err := opts.Budget.Check(); err != nil {
			return nil, nil, fmt.Errorf("isk: attempt %d: %w", attempt, err)
		}
		var att *obs.Span
		if opts.Trace.Enabled() {
			att = opts.Trace.Start("isk.attempt",
				obs.Int("attempt", int64(attempt)), obs.Str("maxres", maxRes.String()))
		}
		begin := time.Now()
		sch, err := run(g, a, maxRes, opts, stats)
		stats.SchedulingTime += time.Since(begin)
		if err != nil {
			att.End(obs.Str("outcome", "error"))
			return nil, nil, err
		}
		if opts.SkipFloorplan {
			att.End(obs.Str("outcome", "unfloorplanned"))
			return sch, stats, nil
		}
		fabric, err := a.RequireFabric()
		if err != nil {
			att.End(obs.Str("outcome", "error"))
			return nil, nil, fmt.Errorf("isk: floorplanning requested: %w", err)
		}
		regionRes := make([]resources.Vector, len(sch.Regions))
		for i, r := range sch.Regions {
			regionRes[i] = r.Res
		}
		fp := opts.Trace.Start("isk.floorplan")
		fpBegin := time.Now()
		if planner == nil {
			planner = floorplan.NewPlanner(fabric)
		}
		res, err := planner.Solve(regionRes, opts.Floorplan)
		stats.FloorplanTime += time.Since(fpBegin)
		fp.End()
		if err != nil {
			att.End(obs.Str("outcome", "error"))
			return nil, nil, err
		}
		if res.Feasible {
			stats.Placements = res.Placements
			att.End(obs.Str("outcome", "feasible"))
			return sch, stats, nil
		}
		if attempt >= opts.MaxRetries {
			att.End(obs.Str("outcome", "infeasible"))
			return nil, nil, fmt.Errorf("isk: %w after %d shrink retries", floorplan.ErrInfeasible, attempt)
		}
		stats.Retries++
		opts.Trace.Count("isk.retries", 1)
		att.End(obs.Str("outcome", "infeasible-shrink"))
		for k := range maxRes {
			maxRes[k] = int(float64(maxRes[k]) * opts.ShrinkFactor)
		}
	}
}

// run executes the iterative scheme on a fixed virtual capacity.
func run(g *taskgraph.Graph, a *arch.Architecture, maxRes resources.Vector, opts Options, stats *Stats) (*schedule.Schedule, error) {
	st := newTimeline(g, a, maxRes, opts.ModuleReuse, opts.Prefetch)
	st.exhaustive = opts.Exhaustive
	st.tails = tails(g)
	if err := st.seedWarm(opts.Initial); err != nil {
		return nil, err
	}
	order, err := priorityOrder(g)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(order); lo += opts.K {
		hi := lo + opts.K
		if hi > len(order) {
			hi = len(order)
		}
		window := order[lo:hi]
		stats.Windows++
		opts.Trace.Count("isk.windows", 1)
		w := opts.Trace.Start("isk.window",
			obs.Int("window", int64(lo/opts.K)), obs.Int("tasks", int64(len(window))))
		nodesBefore := stats.Nodes
		if err := st.solveWindow(window, opts.MaxWindowNodes, &stats.Nodes, opts.Budget); err != nil {
			w.End(obs.Str("outcome", "error"))
			return nil, err
		}
		w.End(obs.Int("nodes", int64(stats.Nodes-nodesBefore)))
		opts.Trace.Count("isk.nodes", int64(stats.Nodes-nodesBefore))
		// The per-window node distribution is the tail-latency signal for
		// IS-k: one hard window dominates the runtime long before the total
		// node counter shows it.
		opts.Trace.Observe("isk.window_nodes", float64(stats.Nodes-nodesBefore))
	}
	return st.emit(fmt.Sprintf("IS-%d", opts.K), opts.ModuleReuse), nil
}

// tails computes, for every task, the longest chain of minimal execution
// times strictly below it in the DAG.
func tails(g *taskgraph.Graph) []int64 {
	topo, err := g.TopoOrder()
	if err != nil {
		return make([]int64, g.N()) // validated earlier; defensive
	}
	out := make([]int64, g.N())
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		comm := g.SuccComm(v)
		for i, w := range g.Succ(v) {
			if c := out[w] + g.Tasks[w].MinTime() + comm[i]; c > out[v] {
				out[v] = c
			}
		}
	}
	return out
}

// priorityOrder lists the tasks in the order windows consume them: by
// longest-path depth, ties broken by a larger downstream critical length
// first, then by ID — the usual list-scheduling priority of ref [6].
func priorityOrder(g *taskgraph.Graph) ([]int, error) {
	depth, err := g.Depth()
	if err != nil {
		return nil, err
	}
	// Downstream rank with minimal execution times.
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	rank := make([]int64, g.N())
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		for _, w := range g.Succ(v) {
			if r := rank[w]; r > rank[v] {
				rank[v] = r
			}
		}
		rank[v] += g.Tasks[v].MinTime()
	}
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			x, y := order[j], order[j-1]
			less := depth[x] < depth[y] ||
				(depth[x] == depth[y] && rank[x] > rank[y]) ||
				(depth[x] == depth[y] && rank[x] == rank[y] && x < y)
			if !less {
				break
			}
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order, nil
}
