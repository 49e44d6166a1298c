package isk

import (
	"sort"

	"resched/internal/arch"
	"resched/internal/floorplan"
	"resched/internal/resources"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// iskRegion is one reconfigurable region of the partial schedule.
type iskRegion struct {
	id         int
	res        resources.Vector
	reconfTime int64
	// freeAt is when the last execution in the region ends.
	freeAt int64
	// loaded is the implementation name currently configured.
	loaded string
	// lastTask is the last task executed here (-1 right after creation).
	lastTask int
	// pinned is the task the committed prefix reserved this region for
	// (its reconfiguration already ran), -1 when unreserved. Until the
	// pinned task is scheduled no other task may enter the region.
	pinned int
}

// interval is a busy slot on the single reconfiguration controller.
type interval struct{ start, end int64 }

// timeline is the committed partial schedule IS-k extends window by window.
type timeline struct {
	g           *taskgraph.Graph
	a           *arch.Architecture
	maxRes      resources.Vector
	cellSize    resources.Vector
	moduleReuse bool
	prefetch    bool
	exhaustive  bool

	impl   []int // -1 while unscheduled
	target []schedule.Target
	start  []int64
	end    []int64
	// release[t], when non-nil, is the earliest start the committed prefix
	// allows for t (cross-boundary data dependencies); folded into ready().
	release []int64
	// pins maps a task to its forced warm-region mapping (see seedWarm).
	pins map[int]pin

	// regions are held by value: the window search appends and truncates
	// them on every new-region decision, reusing the backing array.
	regions    []iskRegion
	procFree   []int64
	usedRes    resources.Vector
	footprints map[resources.Vector]resources.Vector
	makespan   int64
	sumEnds    int64
	// tails[t] is the longest chain of minimal execution times strictly
	// below t; lower bounds the schedule completion when t ends at end[t].
	tails []int64
	// lb is the window-search objective: max over scheduled tasks of
	// end[t] + tails[t] — the completion lower bound ref [6]'s MILP
	// effectively minimises when optimising overall execution time.
	lb int64

	// busy slots per reconfiguration controller, each sorted by start.
	slots [][]interval
	// committed reconfiguration records.
	reconfs []schedule.Reconfiguration

	// swImpls[t] and hwImpls[t] index the software and hardware
	// implementations of task t, computed once per timeline.
	swImpls, hwImpls [][]int
	// ws is the reusable window-search scratch.
	ws windowSearch
}

func newTimeline(g *taskgraph.Graph, a *arch.Architecture, maxRes resources.Vector, moduleReuse, prefetch bool) *timeline {
	n := g.N()
	st := &timeline{
		g:           g,
		a:           a,
		maxRes:      maxRes,
		moduleReuse: moduleReuse,
		prefetch:    prefetch,
		impl:        make([]int, n),
		target:      make([]schedule.Target, n),
		start:       make([]int64, n),
		end:         make([]int64, n),
		procFree:    make([]int64, a.Processors),
	}
	for k := range st.cellSize {
		st.cellSize[k] = 1
		if a.Fabric != nil && a.Fabric.UnitsPerCell[k] > 0 {
			st.cellSize[k] = a.Fabric.UnitsPerCell[k]
		}
	}
	st.swImpls = make([][]int, n)
	st.hwImpls = make([][]int, n)
	for t, task := range g.Tasks {
		st.impl[t] = -1
		st.swImpls[t] = task.SWImpls()
		st.hwImpls[t] = task.HWImpls()
	}
	st.slots = make([][]interval, a.ReconfiguratorCount())
	return st
}

// footprint estimates the capacity a region will consume once placed (see
// sched.state.footprint for the rationale): the content of the minimal-area
// placement rectangle when a fabric is known, cell-rounded counts otherwise.
func (st *timeline) footprint(res resources.Vector) resources.Vector {
	if st.a.Fabric != nil {
		if fp, ok := st.footprints[res]; ok {
			return fp
		}
		fp := floorplan.PlacementFootprint(st.a.Fabric, res)
		if st.footprints == nil {
			st.footprints = make(map[resources.Vector]resources.Vector)
		}
		st.footprints[res] = fp
		return fp
	}
	for k, c := range res {
		cell := st.cellSize[k]
		res[k] = (c + cell - 1) / cell * cell
	}
	return res
}

// ready returns the dependency-induced earliest start of t, including the
// communication time of each incoming edge.
func (st *timeline) ready(t int) int64 {
	var r int64
	if st.release != nil {
		r = st.release[t]
	}
	comm := st.g.PredComm(t)
	for i, p := range st.g.Pred(t) {
		if st.impl[p] < 0 {
			return -1 // predecessor not scheduled yet
		}
		if f := st.end[p] + comm[i]; f > r {
			r = f
		}
	}
	return r
}

// reconfLowerBound gives the earliest instant a reconfiguration of region r
// for a task with the given ready time may begin: the region must be idle,
// and without prefetching the reconfiguration is issued only at task
// dispatch, i.e. once the task's dependencies have completed.
func (st *timeline) reconfLowerBound(r *iskRegion, ready int64) int64 {
	lo := r.freeAt
	if !st.prefetch && ready > lo {
		lo = ready
	}
	return lo
}

// slotOn finds the earliest start ≥ lo of a free slot of the given length
// on controller c.
func (st *timeline) slotOn(c int, lo, dur int64) int64 {
	s := lo
	for _, iv := range st.slots[c] {
		if iv.end <= s {
			continue
		}
		if iv.start >= s+dur {
			break
		}
		s = iv.end
	}
	return s
}

// slotFor finds the earliest start ≥ lo of a free slot of the given length
// across all reconfiguration controllers, returning the controller too.
func (st *timeline) slotFor(lo, dur int64) (int, int64) {
	bestC, bestS := 0, st.slotOn(0, lo, dur)
	for c := 1; c < len(st.slots); c++ {
		if s := st.slotOn(c, lo, dur); s < bestS {
			bestC, bestS = c, s
		}
	}
	return bestC, bestS
}

// insertSlot reserves [start, start+dur) on controller c and returns the
// insertion index for undo.
func (st *timeline) insertSlot(c int, start, dur int64) int {
	tl := st.slots[c]
	i := sort.Search(len(tl), func(k int) bool { return tl[k].start >= start })
	tl = append(tl, interval{})
	copy(tl[i+1:], tl[i:])
	tl[i] = interval{start, start + dur}
	st.slots[c] = tl
	return i
}

// removeSlot undoes insertSlot on controller c.
func (st *timeline) removeSlot(c, i int) {
	tl := st.slots[c]
	copy(tl[i:], tl[i+1:])
	st.slots[c] = tl[:len(tl)-1]
}

// emit converts the committed timeline into a schedule.
func (st *timeline) emit(algorithm string, moduleReuse bool) *schedule.Schedule {
	sch := schedule.New(st.g, st.a)
	sch.Algorithm = algorithm
	sch.ModuleReuse = moduleReuse
	for _, r := range st.regions {
		sch.AddRegion(r.res)
	}
	for t := 0; t < st.g.N(); t++ {
		sch.Tasks[t] = schedule.Assignment{
			Impl:   st.impl[t],
			Target: st.target[t],
			Start:  st.start[t],
			End:    st.end[t],
		}
	}
	sch.Reconfs = append([]schedule.Reconfiguration(nil), st.reconfs...)
	sch.ComputeMakespan()
	return sch
}
