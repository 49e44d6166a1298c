// Package cpm implements the Critical Path Method used by the scheduler's
// critical-path-extraction phase (§V-B of the paper). Given a DAG and per-
// node durations it computes, for every task t, the time window
// w_t = [T_MIN_t, T_MAX_t]: T_MIN is the earliest instant at which t can
// start, T_MAX the latest instant by which t must have completed without
// delaying the overall schedule. Tasks with zero slack form the critical
// path.
package cpm

import (
	"fmt"

	"resched/internal/taskgraph"
)

// Result holds the outcome of a CPM pass.
type Result struct {
	// Order is the topological order used for the passes.
	Order []int
	// EST[t] is T_MIN_t, the earliest start time of task t.
	EST []int64
	// LFT[t] is T_MAX_t, the latest finish time of task t that does not
	// extend the makespan (or the deadline when one was imposed).
	LFT []int64
	// Dur[t] is the duration used for task t.
	Dur []int64
	// Makespan is the length of the longest path (the critical path).
	Makespan int64
}

// Slack returns LFT[t] - EST[t] - Dur[t], the scheduling freedom of task t.
func (r *Result) Slack(t int) int64 { return r.LFT[t] - r.EST[t] - r.Dur[t] }

// Critical reports whether task t lies on a critical path (zero slack).
func (r *Result) Critical(t int) bool { return r.Slack(t) == 0 }

// CriticalTasks returns the IDs of all zero-slack tasks in topological
// order.
func (r *Result) CriticalTasks() []int {
	var out []int
	for _, t := range r.Order {
		if r.Critical(t) {
			out = append(out, t)
		}
	}
	return out
}

// Window returns w_t = [T_MIN_t, T_MAX_t].
func (r *Result) Window(t int) (tmin, tmax int64) { return r.EST[t], r.LFT[t] }

// Compute runs CPM over a DAG given as adjacency lists. pred may be nil.
// release optionally fixes a floor on each task's earliest start (use nil
// for all-zero); deadline imposes the latest finish for every sink — pass a
// negative deadline to use the computed makespan (the classic CPM backward
// pass).
func Compute(n int, succ, pred [][]int, dur []int64, release []int64, deadline int64) (*Result, error) {
	return ComputeEdges(n, succ, pred, dur, release, deadline, nil)
}

// ComputeEdges is Compute with per-edge communication delays: comm[u][i]
// ticks must elapse between u's end and the start of succ[u][i] (nil means
// all-zero). comm is aligned with succ, as taskgraph.Graph.SuccComm is.
func ComputeEdges(n int, succ, pred [][]int, dur []int64, release []int64, deadline int64, comm [][]int64) (*Result, error) {
	var ws Workspace
	est, lft, makespan, err := ws.ComputeEdges(n, succ, pred, dur, release, deadline, comm)
	if err != nil {
		return nil, err
	}
	return &Result{
		Order:    append([]int(nil), ws.order...),
		EST:      est,
		LFT:      lft,
		Dur:      append([]int64(nil), dur...),
		Makespan: makespan,
	}, nil
}

// Workspace holds the working buffers of repeated CPM passes over graphs of
// (roughly) the same size, so the scheduler's hot re-timing loop — one pass
// after every sequencing edge or release change — stops reallocating the
// topological order and the timing arrays on every call. The zero value is
// ready to use; buffers grow to the largest n seen. Not safe for concurrent
// use — give each worker its own workspace.
type Workspace struct {
	topo     taskgraph.TopoScratch
	order    []int
	est, lft []int64
}

// ComputeEdges runs the same forward/backward passes as the package-level
// ComputeEdges but reuses the workspace buffers. The returned est and lft
// slices alias the workspace and are valid until the next call.
func (ws *Workspace) ComputeEdges(n int, succ, pred [][]int, dur []int64, release []int64, deadline int64, comm [][]int64) (est, lft []int64, makespan int64, err error) {
	if len(dur) != n {
		return nil, nil, 0, fmt.Errorf("cpm: %d durations for %d tasks", len(dur), n)
	}
	for t, d := range dur {
		if d < 0 {
			return nil, nil, 0, fmt.Errorf("cpm: task %d has negative duration %d", t, d)
		}
	}
	if comm != nil && len(comm) != n {
		return nil, nil, 0, fmt.Errorf("cpm: %d communication lists for %d tasks", len(comm), n)
	}
	order, err := ws.topo.OrderAdj(n, succ, pred)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("cpm: %w", err)
	}
	ws.order = order
	if cap(ws.est) < n {
		ws.est = make([]int64, n)
		ws.lft = make([]int64, n)
	}
	est, lft = ws.est[:n], ws.lft[:n]
	// Forward pass: EST[t] = max(release[t], max_{p∈pred} EST[p]+dur[p]).
	if release != nil {
		if len(release) != n {
			return nil, nil, 0, fmt.Errorf("cpm: %d release times for %d tasks", len(release), n)
		}
		copy(est, release)
	} else {
		for i := range est {
			est[i] = 0
		}
	}
	for _, v := range order {
		for i, w := range succ[v] {
			f := est[v] + dur[v]
			if comm != nil {
				f += comm[v][i]
			}
			if f > est[w] {
				est[w] = f
			}
		}
		if f := est[v] + dur[v]; f > makespan {
			makespan = f
		}
	}
	// Backward pass: LFT[t] = min_{s∈succ} (LFT[s]-dur[s]); sinks get the
	// deadline.
	horizon := deadline
	if horizon < 0 {
		horizon = makespan
	}
	for i := range lft {
		lft[i] = horizon
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for j, w := range succ[v] {
			lst := lft[w] - dur[w]
			if comm != nil {
				lst -= comm[v][j]
			}
			if lst < lft[v] {
				lft[v] = lst
			}
		}
	}
	return est, lft, makespan, nil
}

// ComputeGraph is a convenience wrapper running CPM directly over a task
// graph with the given per-task durations.
func ComputeGraph(g *taskgraph.Graph, dur []int64) (*Result, error) {
	succ := make([][]int, g.N())
	pred := make([][]int, g.N())
	for t := 0; t < g.N(); t++ {
		succ[t] = g.Succ(t)
		pred[t] = g.Pred(t)
	}
	return Compute(g.N(), succ, pred, dur, nil, -1)
}
