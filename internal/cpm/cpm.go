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
	"math/bits"

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
//
// A workspace also re-times incrementally. After a full pass
// (ComputeEdges), the caller reports each change it makes to the graph —
// EdgeAdded, ReleaseChanged, DurationChanged — and Update then touches only
// the tasks whose earliest start or latest finish actually moves. The
// result equals a fresh full pass bit for bit, because CPM output is a
// pure function of the graph. Update falls back to the full pass when the
// workspace holds no timing to update: before the first pass, after
// Invalidate or an error, and when a new edge goes against the current
// topological order.
type Workspace struct {
	topo     taskgraph.TopoScratch
	order    []int
	est, lft []int64
	// pos[t] is t's index in order. The order stays topological as long
	// as every added edge goes forward in it.
	pos []int
	// q[t] = horizon − lft[t] is the longest path from t's end to the end
	// of the graph, communication included. It does not depend on the
	// horizon, so a moved makespan re-derives lft without a backward pass.
	q []int64
	// The graph size, deadline, makespan and horizon of the timing held.
	n                           int
	deadline, makespan, horizon int64
	// valid reports that est, lft, q and pos describe the graph as of the
	// last pass plus the changes reported since.
	valid bool
	// Seeds of the next incremental pass: tasks whose est must be pulled
	// from their predecessors, tasks whose q must be pulled from their
	// successors, and tasks whose duration changed.
	fwd, bwd, durs []int
	// queue marks, by position, the tasks an incremental pass still has to
	// visit: it walks forward in ascending and backward in descending
	// position, so each task is pulled after every task it depends on.
	queue []uint64
	// full and incremental count the passes Update ran.
	full, incremental int64
}

// ComputeEdges runs the same forward/backward passes as the package-level
// ComputeEdges but reuses the workspace buffers. The returned est and lft
// slices alias the workspace and are valid until the next call. A
// successful pass is the starting point of later incremental updates.
func (ws *Workspace) ComputeEdges(n int, succ, pred [][]int, dur []int64, release []int64, deadline int64, comm [][]int64) (est, lft []int64, makespan int64, err error) {
	ws.Invalidate()
	if len(dur) != n {
		return nil, nil, 0, fmt.Errorf("cpm: %d durations for %d tasks", len(dur), n)
	}
	for t, d := range dur {
		if d < 0 {
			return nil, nil, 0, fmt.Errorf("cpm: task %d has negative duration %d", t, d)
		}
	}
	if comm != nil {
		if len(comm) != n {
			return nil, nil, 0, fmt.Errorf("cpm: %d communication lists for %d tasks", len(comm), n)
		}
		for v := range n {
			if len(comm[v]) != len(succ[v]) {
				return nil, nil, 0, fmt.Errorf("cpm: task %d has %d communication times for %d successors", v, len(comm[v]), len(succ[v]))
			}
		}
	}
	if release != nil && len(release) != n {
		return nil, nil, 0, fmt.Errorf("cpm: %d release times for %d tasks", len(release), n)
	}
	order, err := ws.topo.OrderAdj(n, succ, pred)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("cpm: %w", err)
	}
	ws.order = order
	ws.grow(n)
	est, lft, q := ws.est, ws.lft, ws.q
	// Forward pass: EST[t] = max(release[t], max_{p∈pred} EST[p]+dur[p]).
	if release != nil {
		copy(est, release)
	} else {
		clear(est)
	}
	for i, v := range order {
		ws.pos[v] = i
		for j, w := range succ[v] {
			f := est[v] + dur[v]
			if comm != nil {
				f += comm[v][j]
			}
			if f > est[w] {
				est[w] = f
			}
		}
		if f := est[v] + dur[v]; f > makespan {
			makespan = f
		}
	}
	// Backward pass: q[t] = max_{s∈succ} (q[s]+dur[s]); sinks get 0, so
	// LFT[t] = horizon − q[t] = min_{s∈succ} (LFT[s]−dur[s]) and sinks
	// get the horizon.
	clear(q)
	for i := len(order) - 1; i >= 0; i-- {
		ws.pullQ(order[i], succ, dur, comm)
	}
	ws.n, ws.deadline, ws.makespan = n, deadline, makespan
	ws.setHorizon()
	for t := range lft {
		lft[t] = ws.horizon - q[t]
	}
	ws.valid = true
	return est, lft, makespan, nil
}

// grow sizes the timing buffers to n tasks.
func (ws *Workspace) grow(n int) {
	if cap(ws.est) < n {
		ws.est = make([]int64, n)
		ws.lft = make([]int64, n)
		ws.q = make([]int64, n)
		ws.pos = make([]int, n)
		ws.queue = make([]uint64, (n+63)/64)
	}
	ws.est, ws.lft, ws.q, ws.pos = ws.est[:n], ws.lft[:n], ws.q[:n], ws.pos[:n]
	ws.queue = ws.queue[:(n+63)/64]
}

// setHorizon derives the backward pass's horizon: the deadline when one
// was imposed, the makespan otherwise.
func (ws *Workspace) setHorizon() {
	ws.horizon = ws.deadline
	if ws.horizon < 0 {
		ws.horizon = ws.makespan
	}
}

// pullQ recomputes q[v] from v's successors and reports whether it moved.
func (ws *Workspace) pullQ(v int, succ [][]int, dur []int64, comm [][]int64) bool {
	var q int64
	for j, w := range succ[v] {
		l := ws.q[w] + dur[w]
		if comm != nil {
			l += comm[v][j]
		}
		if l > q {
			q = l
		}
	}
	if q == ws.q[v] {
		return false
	}
	ws.q[v] = q
	return true
}

// Invalidate drops the timing the workspace holds, so the next Update runs
// the full pass. Call it when the graph changes in a way the change
// reports below do not describe.
func (ws *Workspace) Invalidate() {
	ws.valid = false
	ws.fwd, ws.bwd, ws.durs = ws.fwd[:0], ws.bwd[:0], ws.durs[:0]
}

// EdgeAdded reports a new edge u→v. An edge that goes against the current
// topological order (or closes a cycle) makes the next Update a full pass.
func (ws *Workspace) EdgeAdded(u, v int) {
	if !ws.valid {
		return
	}
	if ws.pos[u] >= ws.pos[v] {
		ws.Invalidate()
		return
	}
	ws.fwd = append(ws.fwd, v)
	ws.bwd = append(ws.bwd, u)
}

// ReleaseChanged reports that task t's release time changed.
func (ws *Workspace) ReleaseChanged(t int) {
	if ws.valid {
		ws.fwd = append(ws.fwd, t)
	}
}

// DurationChanged reports that task t's duration changed.
func (ws *Workspace) DurationChanged(t int) {
	if ws.valid {
		ws.durs = append(ws.durs, t)
	}
}

// Passes returns how many full and incremental passes Update has run.
func (ws *Workspace) Passes() (full, incremental int64) { return ws.full, ws.incremental }

// Update re-times the graph after the changes reported since the last pass
// and returns what ComputeEdges would return on the current graph. predComm
// is comm aligned with pred (nil when comm is nil); the incremental pass
// reads it to pull earliest starts from predecessors. The returned slices
// alias the workspace, as ComputeEdges' do.
func (ws *Workspace) Update(n int, succ, pred [][]int, dur []int64, release []int64, deadline int64, comm, predComm [][]int64) (est, lft []int64, makespan int64, err error) {
	full := !ws.valid || n != ws.n || deadline != ws.deadline || pred == nil || (comm != nil && predComm == nil)
	for _, t := range ws.durs {
		full = full || dur[t] < 0 // the full pass reports it
	}
	if full {
		ws.full++
		return ws.ComputeEdges(n, succ, pred, dur, release, deadline, comm)
	}
	ws.incremental++
	for _, t := range ws.durs {
		// t's own est and q do not depend on its duration; the starts of
		// its successors and the tails of its predecessors do.
		ws.fwd = append(ws.fwd, succ[t]...)
		ws.bwd = append(ws.bwd, pred[t]...)
	}
	ws.forward(pred, succ, dur, release, predComm)
	ws.makespan = 0
	for t, e := range ws.est {
		if f := e + dur[t]; f > ws.makespan {
			ws.makespan = f
		}
	}
	old := ws.horizon
	ws.setHorizon()
	ws.backward(pred, succ, dur, comm)
	if ws.horizon != old {
		for t, q := range ws.q {
			ws.lft[t] = ws.horizon - q
		}
	}
	ws.fwd, ws.bwd, ws.durs = ws.fwd[:0], ws.bwd[:0], ws.durs[:0]
	return ws.est, ws.lft, ws.makespan, nil
}

// forward pulls the earliest start of every seeded task, and of every
// successor of a task whose start moved, in ascending position.
func (ws *Workspace) forward(pred, succ [][]int, dur, release []int64, predComm [][]int64) {
	for _, v := range ws.fwd {
		ws.mark(v)
	}
	est := ws.est
	for i := 0; i < len(ws.queue); {
		if ws.queue[i] == 0 {
			i++
			continue
		}
		b := bits.TrailingZeros64(ws.queue[i])
		ws.queue[i] &^= 1 << b
		v := ws.order[i*64+b]
		var e int64
		if release != nil {
			e = release[v]
		}
		for j, u := range pred[v] {
			f := est[u] + dur[u]
			if predComm != nil {
				f += predComm[v][j]
			}
			if f > e {
				e = f
			}
		}
		if e == est[v] {
			continue
		}
		est[v] = e
		// Successors sit at higher positions: the scan reaches them.
		for _, w := range succ[v] {
			ws.mark(w)
		}
	}
}

// backward pulls q, and with it lft, for every seeded task and every
// predecessor of a task whose q moved, in descending position.
func (ws *Workspace) backward(pred, succ [][]int, dur []int64, comm [][]int64) {
	for _, v := range ws.bwd {
		ws.mark(v)
	}
	for i := len(ws.queue) - 1; i >= 0; {
		if ws.queue[i] == 0 {
			i--
			continue
		}
		b := 63 - bits.LeadingZeros64(ws.queue[i])
		ws.queue[i] &^= 1 << b
		v := ws.order[i*64+b]
		if !ws.pullQ(v, succ, dur, comm) {
			continue
		}
		ws.lft[v] = ws.horizon - ws.q[v]
		// Predecessors sit at lower positions: the scan reaches them.
		for _, u := range pred[v] {
			ws.mark(u)
		}
	}
}

// mark queues task v for the running incremental pass.
func (ws *Workspace) mark(v int) {
	p := ws.pos[v]
	ws.queue[p/64] |= 1 << (p % 64)
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
