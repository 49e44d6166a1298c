// Package taskgraph models the application of the scheduling problem: a
// Directed Acyclic Graph G = (T, E) of tasks (§III of the paper), where each
// task offers one or more software implementations and zero or more hardware
// implementations with heterogeneous resource requirements.
package taskgraph

import (
	"cmp"
	"fmt"
	"slices"

	"resched/internal/resources"
)

// ImplKind distinguishes hardware from software implementations.
type ImplKind int

const (
	// HW marks an implementation mapped to a reconfigurable region.
	HW ImplKind = iota
	// SW marks an implementation executed on a processor core.
	SW
)

// String returns "HW" or "SW".
func (k ImplKind) String() string {
	switch k {
	case HW:
		return "HW"
	case SW:
		return "SW"
	default:
		return fmt.Sprintf("ImplKind(%d)", int(k))
	}
}

// Implementation is one way of executing a task (an element of I_t).
type Implementation struct {
	// Name identifies the implementation. Distinct tasks may share an
	// implementation name: two HW tasks with the same Name produce the
	// same partial bitstream, enabling module reuse (§VII-A).
	Name string
	// Kind is HW or SW.
	Kind ImplKind
	// Time is the execution time time_i in ticks. Data transfer time is
	// folded into Time per §III.
	Time int64
	// Res is res_{i,r}: the region resource requirement of a HW
	// implementation. It must be zero for SW implementations.
	Res resources.Vector
}

// Task is a node t ∈ T of the application DAG.
type Task struct {
	// ID is the task's index within its Graph (assigned by AddTask).
	ID int
	// Name is a human-readable label.
	Name string
	// Impls lists the available implementations I_t.
	Impls []Implementation
}

// HWImpls returns the indices into Impls of the hardware implementations.
func (t *Task) HWImpls() []int { return t.implsOf(HW) }

// SWImpls returns the indices into Impls of the software implementations.
func (t *Task) SWImpls() []int { return t.implsOf(SW) }

func (t *Task) implsOf(k ImplKind) []int {
	var out []int
	for i, im := range t.Impls {
		if im.Kind == k {
			out = append(out, i)
		}
	}
	return out
}

// FastestSW returns the index of the software implementation with the lowest
// execution time, or -1 when the task has none.
func (t *Task) FastestSW() int {
	best := -1
	for i, im := range t.Impls {
		if im.Kind != SW {
			continue
		}
		if best < 0 || im.Time < t.Impls[best].Time {
			best = i
		}
	}
	return best
}

// MinTime returns min_{i ∈ I_t} time_i, used by maxT in eq. (3).
func (t *Task) MinTime() int64 {
	if len(t.Impls) == 0 {
		return 0
	}
	m := t.Impls[0].Time
	for _, im := range t.Impls[1:] {
		if im.Time < m {
			m = im.Time
		}
	}
	return m
}

// Graph is the application task graph.
type Graph struct {
	// Name labels the application.
	Name string
	// Tasks holds the nodes; Tasks[i].ID == i.
	Tasks []*Task

	succ [][]int
	pred [][]int
	// succComm[t][i] is the communication time in ticks of edge
	// (t, succ[t][i]); predComm[t][i] that of edge (pred[t][i], t). Keeping
	// the weights next to the adjacency lets the timing passes read them
	// while they walk the edges.
	succComm [][]int64
	predComm [][]int64
}

// New creates an empty task graph.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddTask appends a task and returns it. The implementations are copied.
func (g *Graph) AddTask(name string, impls ...Implementation) *Task {
	t := &Task{ID: len(g.Tasks), Name: name, Impls: append([]Implementation(nil), impls...)}
	g.Tasks = append(g.Tasks, t)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.succComm = append(g.succComm, nil)
	g.predComm = append(g.predComm, nil)
	return t
}

// AddEdge inserts the dependency (from, to) ∈ E with no communication
// cost. Duplicate edges are ignored; self-loops and out-of-range IDs are
// rejected.
func (g *Graph) AddEdge(from, to int) error { return g.AddEdgeComm(from, to, 0) }

// AddEdgeComm inserts the dependency (from, to) ∈ E annotated with a
// communication time in ticks that must elapse between the producer's end
// and the consumer's start (the paper's §VIII future-work extension: §III
// folds transfer time into execution times, which this models explicitly).
// Adding an existing edge keeps the larger communication time.
func (g *Graph) AddEdgeComm(from, to int, comm int64) error {
	if err := g.checkEdge(from, to, comm); err != nil {
		return err
	}
	si, pi := g.find(from, to)
	if si < 0 && pi < 0 {
		g.appendEdge(from, to, comm)
		return nil
	}
	if comm > g.EdgeComm(from, to) {
		if si < 0 {
			si = slices.Index(g.succ[from], to)
		}
		if pi < 0 {
			pi = slices.Index(g.pred[to], from)
		}
		g.succComm[from][si] = comm
		g.predComm[to][pi] = comm
	}
	return nil
}

// checkEdge rejects out-of-range IDs, self-loops and negative
// communication times.
func (g *Graph) checkEdge(from, to int, comm int64) error {
	if from < 0 || from >= len(g.Tasks) || to < 0 || to >= len(g.Tasks) {
		return fmt.Errorf("taskgraph %q: edge (%d,%d) out of range [0,%d)", g.Name, from, to, len(g.Tasks))
	}
	if from == to {
		return fmt.Errorf("taskgraph %q: self-loop on task %d", g.Name, from)
	}
	if comm < 0 {
		return fmt.Errorf("taskgraph %q: edge (%d,%d) has negative communication time %d", g.Name, from, to, comm)
	}
	return nil
}

// appendEdge adds a checked edge that is not yet in the graph.
func (g *Graph) appendEdge(from, to int, comm int64) {
	g.succ[from] = append(g.succ[from], to)
	g.succComm[from] = append(g.succComm[from], comm)
	g.pred[to] = append(g.pred[to], from)
	g.predComm[to] = append(g.predComm[to], comm)
}

// find locates edge (from, to) by scanning only the shorter of from's
// successor list and to's predecessor list, so a lookup costs the smaller
// endpoint degree: a high fan-out hub never scans its own fan-out to find
// one edge. It returns the edge's index in succ[from] or in pred[to] (the
// other is -1), or -1, -1 when the edge does not exist.
func (g *Graph) find(from, to int) (si, pi int) {
	if from < 0 || from >= len(g.succ) || to < 0 || to >= len(g.pred) {
		return -1, -1
	}
	if len(g.pred[to]) < len(g.succ[from]) {
		return -1, slices.Index(g.pred[to], from)
	}
	return slices.Index(g.succ[from], to), -1
}

// EdgeComm returns the communication time of edge (from, to), or 0 when
// the edge does not exist.
func (g *Graph) EdgeComm(from, to int) int64 {
	switch si, pi := g.find(from, to); {
	case si >= 0:
		return g.succComm[from][si]
	case pi >= 0:
		return g.predComm[to][pi]
	}
	return 0
}

// N returns |T|.
func (g *Graph) N() int { return len(g.Tasks) }

// Succ returns the successor task IDs of t. The slice must not be modified.
func (g *Graph) Succ(t int) []int { return g.succ[t] }

// Pred returns the predecessor task IDs of t. The slice must not be modified.
func (g *Graph) Pred(t int) []int { return g.pred[t] }

// SuccComm returns the communication times of t's outgoing edges, aligned
// with Succ(t). The slice must not be modified.
func (g *Graph) SuccComm(t int) []int64 { return g.succComm[t] }

// PredComm returns the communication times of t's incoming edges, aligned
// with Pred(t). The slice must not be modified.
func (g *Graph) PredComm(t int) []int64 { return g.predComm[t] }

// Edges returns all edges sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	edges, _ := g.sortedEdges(false)
	return edges
}

// EdgesComm returns Edges() together with each edge's communication time,
// aligned index for index. Callers that walk every edge with its weight
// use it instead of an EdgeComm lookup per edge.
func (g *Graph) EdgesComm() ([][2]int, []int64) { return g.sortedEdges(true) }

func (g *Graph) sortedEdges(withComm bool) ([][2]int, []int64) {
	n := 0
	for _, ss := range g.succ {
		n += len(ss)
	}
	edges := make([][2]int, 0, n)
	var comm []int64
	if withComm {
		comm = make([]int64, 0, n)
	}
	type edgeTo struct {
		to   int
		comm int64
	}
	var run []edgeTo
	for u, ss := range g.succ {
		// Successors keep insertion order; sort this source's run by target.
		run = run[:0]
		for i, v := range ss {
			run = append(run, edgeTo{v, g.succComm[u][i]})
		}
		slices.SortFunc(run, func(a, b edgeTo) int { return cmp.Compare(a.to, b.to) })
		for _, e := range run {
			edges = append(edges, [2]int{u, e.to})
			if withComm {
				comm = append(comm, e.comm)
			}
		}
	}
	return edges, comm
}

// Validate checks the structural assumptions of §III: the graph is acyclic,
// every task has at least one implementation with positive execution time,
// SW implementations carry no resource requirements, and (per the paper's
// stated assumption) every task has at least one software implementation.
func (g *Graph) Validate() error {
	for _, t := range g.Tasks {
		if len(t.Impls) == 0 {
			return fmt.Errorf("taskgraph %q: task %d (%s) has no implementations", g.Name, t.ID, t.Name)
		}
		hasSW := false
		for i, im := range t.Impls {
			if im.Time <= 0 {
				return fmt.Errorf("taskgraph %q: task %d impl %d (%s) has non-positive time %d", g.Name, t.ID, i, im.Name, im.Time)
			}
			switch im.Kind {
			case SW:
				hasSW = true
				if !im.Res.Zero() {
					return fmt.Errorf("taskgraph %q: task %d SW impl %d (%s) has resource requirements %v", g.Name, t.ID, i, im.Name, im.Res)
				}
			case HW:
				if im.Res.Zero() {
					return fmt.Errorf("taskgraph %q: task %d HW impl %d (%s) has no resource requirements", g.Name, t.ID, i, im.Name)
				}
				if !im.Res.NonNegative() {
					return fmt.Errorf("taskgraph %q: task %d HW impl %d (%s) has negative requirements %v", g.Name, t.ID, i, im.Name, im.Res)
				}
			default:
				return fmt.Errorf("taskgraph %q: task %d impl %d (%s) has invalid kind %d", g.Name, t.ID, i, im.Name, im.Kind)
			}
		}
		if !hasSW {
			return fmt.Errorf("taskgraph %q: task %d (%s) has no software implementation", g.Name, t.ID, t.Name)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Clone returns a deep copy of the graph. The adjacency is copied
// structurally — including successor/predecessor order, which AddEdgeComm
// replays could only reproduce with care — so cloning needs no validation
// and cannot fail.
func (g *Graph) Clone() *Graph {
	c := New(g.Name)
	for _, t := range g.Tasks {
		c.AddTask(t.Name, t.Impls...)
	}
	for i := range g.Tasks {
		c.succ[i] = append([]int(nil), g.succ[i]...)
		c.pred[i] = append([]int(nil), g.pred[i]...)
		c.succComm[i] = append([]int64(nil), g.succComm[i]...)
		c.predComm[i] = append([]int64(nil), g.predComm[i]...)
	}
	return c
}

// Sources returns the IDs of tasks without predecessors.
func (g *Graph) Sources() []int {
	var out []int
	for i := range g.Tasks {
		if len(g.pred[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}
