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
	// Exhaustive disables the per-implementation region shortlist so the
	// window search enumerates every compatible region, and caps each
	// window at budget.ExactNodes instead of budget.WindowNodes. Package
	// exact uses this with K = |T| to search the whole non-delay schedule
	// space.
	Exhaustive bool
	// SkipFloorplan omits the floorplanning feasibility loop. Without it a
	// schedule the floorplanner rejects restarts on a virtually shrunk
	// device, the same §V-H policy PA applies (floorplan.Restart).
	SkipFloorplan bool
	// Initial, when non-nil and non-empty, is the warm platform state the
	// run schedules from (schedule.PlatformState, produced by
	// schedule.Freeze): warm regions become committed regions 0..n-1, their
	// busy-until floors seed the timelines, release floors feed ready(),
	// and pinned tasks execute first in their regions with the committed
	// implementation. A nil or Empty state is the historical t=0 run.
	Initial *schedule.PlatformState
	// Budget, when non-nil, bounds the whole run: it is checked at every
	// attempt boundary, charged per node inside the window branch-and-bound
	// and inside floorplan queries, so a cancel lands in milliseconds. On
	// exhaustion Schedule returns an error matching budget.ErrExhausted.
	// The window cap, by contrast, only ends one window's search early.
	Budget *budget.Budget
	// Faults, when armed, is forwarded to the floorplanner to drive failure
	// paths deterministically in tests.
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
	return o
}

// Stats describes an IS-k run.
type Stats struct {
	// Windows is the number of k-task windows solved.
	Windows int
	// Nodes is the total branch-and-bound nodes across windows.
	Nodes int
	// CappedWindows counts the windows whose search stopped at the window
	// cap: their plan is the best found, not a proven optimum.
	CappedWindows int
	// RestartStats splits the runtime as in Table I and counts the §V-H
	// attempts and retries; its Placements is the verified floorplan
	// (empty when SkipFloorplan).
	floorplan.RestartStats
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
	stats := &Stats{}
	var sch *schedule.Schedule
	rs, err := floorplan.Restart{
		Name:      "isk",
		QuerySpan: "isk.floorplan",
		Arch:      a,
		Skip:      opts.SkipFloorplan,
		Budget:    opts.Budget,
		Faults:    opts.Faults,
		Trace:     opts.Trace,
	}.Run(func(maxRes resources.Vector) ([]resources.Vector, error) {
		var err error
		if sch, err = run(g, a, maxRes, opts, stats); err != nil {
			return nil, err
		}
		return sch.RegionRequirements(), nil
	})
	if err != nil {
		return nil, nil, err
	}
	stats.RestartStats = rs
	return sch, stats, nil
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
	windowCap := budget.WindowNodes
	if opts.Exhaustive {
		windowCap = budget.ExactNodes
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
		if err := st.solveWindow(window, windowCap, &stats.Nodes, opts.Budget); err != nil {
			w.End(obs.Str("outcome", "error"))
			return nil, err
		}
		if st.ws.nodeBudget <= 0 { // the search spent the window cap
			stats.CappedWindows++
			opts.Trace.Count("isk.windows_capped", 1)
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
