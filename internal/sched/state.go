package sched

import (
	"fmt"
	"slices"

	"resched/internal/arch"
	"resched/internal/cpm"
	"resched/internal/floorplan"
	"resched/internal/resources"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// state carries the scheduler's working data across the eight phases of §V.
// The combined dependency graph starts as the application task graph and
// grows sequencing edges as tasks are ordered inside reconfigurable regions
// and on processors.
//
// A state is embedded in a scratch arena and reused across shrink-retry
// attempts and PA-R iterations: reset re-slices the preallocated buffers
// instead of reallocating them, which is what keeps the per-iteration
// allocation count flat. A state must only ever be used by one goroutine —
// parallel searches give every worker its own scratch.
//
// The arena marker below enrolls the type with the arenaescape analyzer:
// slices and maps read out of a state must be copied before they reach a
// Result/Stats struct or leave an exported function.
//
//reschedvet:arena
type state struct {
	g *taskgraph.Graph
	a *arch.Architecture
	// maxRes is the (possibly virtually shrunk, §V-H) capacity used for
	// region accounting.
	maxRes  resources.Vector
	weights resources.Weights
	// cellSize[k] is the fabric column-cell granularity of resource kind
	// k (1 when the architecture has no fabric). Region footprints are
	// rounded up to whole cells for capacity accounting, matching what the
	// floorplanner can actually place.
	cellSize resources.Vector
	// footprints caches fabric-aware capacity footprints per requirement.
	// The cache is pure (fabric geometry is immutable) and survives resets.
	footprints map[resources.Vector]resources.Vector
	// strict selects the ablation mode that uses the literal §V-C
	// window-disjointness test instead of slot-insertion compatibility.
	strict bool

	// impl[t] is the selected implementation index of task t.
	impl []int
	// dur[t] is the execution time of the selected implementation.
	dur []int64

	// Combined dependency graph: application edges + sequencing edges.
	// The inner succ/pred slices retain their capacity across resets.
	// succComm is aligned with succ: an application edge carries its
	// declared communication time, a sequencing edge communicates for free.
	succ     [][]int
	pred     [][]int
	succComm [][]int64

	// regions and placement bookkeeping. regionPool recycles regionState
	// objects (and their task slices) across resets.
	regions    []*regionState
	regionPool []*regionState
	regionOf   []int // region index per task, -1 for software tasks
	procOf     []int // processor per software task, -1 before mapping
	usedRes    resources.Vector

	// release[t] is an externally imposed earliest start (reconfiguration
	// induced delays, and warm-start floors from frozen predecessors).
	release []int64

	// warm is the initial platform state of a re-plan run (nil for the
	// offline t=0 solve). It is read-only; seedWarm translates it into
	// release floors, warm regions and pins.
	warm *schedule.PlatformState

	// Current timing (recomputed by retime): est doubles as the start
	// time, lft is the latest finish without extending the makespan. Both
	// alias the cpm workspace and are rewritten in place by every retime.
	est, lft []int64
	makespan int64

	// cpmWS reuses the topological-order and timing buffers across the
	// many re-timing passes of a single run (one per sequencing edge).
	cpmWS cpm.Workspace

	// Phase-local scratch buffers, each reused via [:0] re-slicing.
	orderBuf       []int              // hwOrder result
	critBuf        []bool             // per-task criticality snapshot
	regionOrderBuf []int              // regionTasksByStart result
	reachBuf       []int              // reaches BFS queue
	swBuf          []int              // software-task lists (phases 4 and 6)
	procEndBuf     []int64            // per-processor end times (phase 6)
	procLastBuf    []int              // per-processor last task (phase 6)
	rtBuf          []reconfTask       // reconfiguration task backing store
	rtPtrBuf       []*reconfTask      // reconfiguration task pointers
	rtCritBuf      []*reconfTask      // critical partition (phase 7)
	rtNonBuf       []*reconfTask      // non-critical partition (phase 7)
	rtOrderBuf     []*reconfTask      // repair-pass ordering buffer
	chanBuf        channelSet         // controller timelines, reused
	regionResBuf   []resources.Vector // per-region requirement vectors
}

// regionState is a reconfigurable region under construction.
type regionState struct {
	id     int
	res    resources.Vector
	bits   int64
	reconf int64
	tasks  []int

	// Warm-start fields (zero for regions opened by this run): a warm
	// region pre-exists the run, is busy until availFrom, holds module
	// loaded at that instant, and may pin a task whose bitstream a
	// committed reconfiguration already loads.
	warm       bool
	availFrom  int64
	loaded     string
	pinned     int
	pinnedImpl int
}

// newState initialises a fresh working state for one scheduling run. Callers
// that run the pipeline repeatedly (shrink retries, PA-R iterations) should
// construct the state once and reset it between runs.
func newState(g *taskgraph.Graph, a *arch.Architecture, maxRes resources.Vector) *state {
	s := &state{}
	s.reset(g, a, maxRes)
	return s
}

// reset (re)initialises the state for a run on the given instance, reusing
// every buffer the previous run left behind. It is equivalent to a fresh
// newState: all derived data — sequencing edges, regions, timings, releases
// — is cleared, so runs after a reset are bit-identical to first runs.
func (s *state) reset(g *taskgraph.Graph, a *arch.Architecture, maxRes resources.Vector) {
	n := g.N()
	s.g, s.a, s.maxRes = g, a, maxRes
	s.weights = resources.WeightsFor(a.MaxRes)
	s.strict = false
	s.usedRes = resources.Vector{}
	s.makespan = 0
	s.warm = nil

	if cap(s.impl) < n {
		s.impl = make([]int, n)
		s.dur = make([]int64, n)
		s.regionOf = make([]int, n)
		s.procOf = make([]int, n)
		s.release = make([]int64, n)
		s.succ = make([][]int, n)
		s.pred = make([][]int, n)
		s.succComm = make([][]int64, n)
	}
	s.impl = s.impl[:n]
	s.dur = s.dur[:n]
	s.regionOf = s.regionOf[:n]
	s.procOf = s.procOf[:n]
	s.release = s.release[:n]
	s.succ = s.succ[:n]
	s.pred = s.pred[:n]
	s.succComm = s.succComm[:n]
	s.regions = s.regions[:0]

	for k := range s.cellSize {
		s.cellSize[k] = 1
		if a.Fabric != nil && a.Fabric.UnitsPerCell[k] > 0 {
			s.cellSize[k] = a.Fabric.UnitsPerCell[k]
		}
	}
	for t := 0; t < n; t++ {
		s.impl[t] = 0
		s.dur[t] = 0
		s.release[t] = 0
		s.succ[t] = append(s.succ[t][:0], g.Succ(t)...)
		s.pred[t] = append(s.pred[t][:0], g.Pred(t)...)
		s.succComm[t] = append(s.succComm[t][:0], g.SuccComm(t)...)
		s.regionOf[t] = -1
		s.procOf[t] = -1
	}
}

// footprint estimates the device capacity a region of the given requirement
// will actually consume once placed: the content of its minimal-area
// placement rectangle on the fabric (which includes any columns of other
// kinds the rectangle spans). Without a fabric it falls back to rounding up
// to whole cells per kind. Keeping the accounting aligned with what the
// floorplanner can place makes the §V-H shrink-and-restart loop rare.
func (s *state) footprint(res resources.Vector) resources.Vector {
	if s.a.Fabric != nil {
		if fp, ok := s.footprints[res]; ok {
			return fp
		}
		fp := floorplan.PlacementFootprint(s.a.Fabric, res)
		if s.footprints == nil {
			s.footprints = make(map[resources.Vector]resources.Vector)
		}
		s.footprints[res] = fp
		return fp
	}
	for k, c := range res {
		cell := s.cellSize[k]
		res[k] = (c + cell - 1) / cell * cell
	}
	return res
}

// addEdge inserts a sequencing edge into the combined graph (idempotent).
// The duplicate check scans the shorter endpoint list, so a high fan-out
// task is never scanned for each sequencing edge it gains.
func (s *state) addEdge(from, to int) {
	if from == to {
		return
	}
	if len(s.pred[to]) < len(s.succ[from]) {
		if slices.Contains(s.pred[to], from) {
			return
		}
	} else if slices.Contains(s.succ[from], to) {
		return
	}
	s.succ[from] = append(s.succ[from], to)
	s.succComm[from] = append(s.succComm[from], 0)
	s.pred[to] = append(s.pred[to], from)
}

// reaches reports whether task to is reachable from task from in the
// combined graph (application edges plus inserted sequencing edges). Used to
// reject region placements that would contradict a warm region's pin-first
// contract: a task that precedes the pinned task can never follow it.
func (s *state) reaches(from, to int) bool {
	if from == to {
		return true
	}
	seen := make([]bool, s.g.N())
	seen[from] = true
	queue := append(s.reachBuf[:0], from)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range s.succ[v] {
			if w == to {
				s.reachBuf = queue[:0]
				return true
			}
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	s.reachBuf = queue[:0]
	return false
}

// hostablePinned reports whether warm region r may host task t at all: a
// pinned region must run its pin first, so any task ordered before the pin
// by the combined graph is rejected outright (timing floors cannot save it —
// delaying t to the pin's end would delay the pin itself through the same
// precedence path).
func (s *state) hostablePinned(r *regionState, t int) bool {
	return !r.warm || r.pinned < 0 || r.pinned == t || !s.reaches(t, r.pinned)
}

// setImpl selects implementation i for task t and refreshes its duration.
func (s *state) setImpl(t, i int) {
	s.impl[t] = i
	s.dur[t] = s.g.Tasks[t].Impls[i].Time
}

// selectedImpl returns the implementation currently selected for t.
func (s *state) selectedImpl(t int) taskgraph.Implementation {
	return s.g.Tasks[t].Impls[s.impl[t]]
}

// isHW reports whether the selected implementation of t is hardware.
func (s *state) isHW(t int) bool { return s.selectedImpl(t).Kind == taskgraph.HW }

// retime recomputes the time windows over the combined graph: est (which is
// also the start time of the schedule under construction — §V-E sets
// T_START = T_MIN) via a forward pass honouring releases, lft via the
// backward pass against the resulting makespan. The timing arrays alias the
// reusable cpm workspace and are overwritten in place on every call.
func (s *state) retime() error {
	est, lft, makespan, err := s.cpmWS.ComputeEdges(s.g.N(), s.succ, s.pred, s.dur, s.release, -1, s.succComm)
	if err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	s.est, s.lft, s.makespan = est, lft, makespan
	return nil
}

// critical reports whether t currently has zero slack.
func (s *state) critical(t int) bool { return s.lft[t]-s.est[t]-s.dur[t] == 0 }

// start and end of task t under the current timing.
func (s *state) start(t int) int64 { return s.est[t] }
func (s *state) end(t int) int64   { return s.est[t] + s.dur[t] }

// window returns [T_MIN, T_MAX] of task t.
func (s *state) window(t int) (int64, int64) { return s.est[t], s.lft[t] }

// delay imposes an earliest start on task t and re-times the schedule.
func (s *state) delay(t int, notBefore int64) error {
	if notBefore <= s.release[t] {
		return nil
	}
	s.release[t] = notBefore
	return s.retime()
}

// newRegion opens a reconfigurable region sized for requirement res,
// recycling a pooled regionState (and its task slice) when one is free.
func (s *state) newRegion(res resources.Vector) *regionState {
	id := len(s.regions)
	var r *regionState
	if id < len(s.regionPool) {
		r = s.regionPool[id]
		r.tasks = r.tasks[:0]
	} else {
		r = &regionState{}
		s.regionPool = append(s.regionPool, r)
	}
	r.id = id
	r.res = res
	r.bits = s.a.BitstreamBits(res)
	r.reconf = s.a.ReconfTime(res)
	// Pool recycling: a previous run may have left warm fields behind.
	r.warm, r.availFrom, r.loaded, r.pinned, r.pinnedImpl = false, 0, "", -1, 0
	s.regions = append(s.regions, r)
	s.usedRes = s.usedRes.Add(s.footprint(res))
	return r
}

// assignToRegion places task t in region r and inserts the sequencing edges
// that keep the region's tasks totally ordered by their current windows
// (§V-C: "new dependencies are inserted into the taskgraph to guarantee the
// ordering of tasks inside each reconfigurable region").
func (s *state) assignToRegion(t int, r *regionState) error {
	// Find t's neighbours among the region's tasks using the same slot
	// semantics as windowsCompatible: a task whose fixed slot ends before
	// t's window precedes t, anything else (compatibility guarantees its
	// slot starts after t's window) follows t.
	prev, next := -1, -1
	for _, t2 := range r.tasks {
		if s.end(t2) <= s.est[t] {
			if prev < 0 || s.end(t2) > s.end(prev) {
				prev = t2
			}
		} else {
			if next < 0 || s.est[t2] < s.est[next] {
				next = t2
			}
		}
	}
	if prev >= 0 {
		s.addEdge(prev, t)
	}
	if next >= 0 {
		s.addEdge(t, next)
	}
	r.tasks = append(r.tasks, t)
	s.regionOf[t] = r.id
	return s.retime()
}

// regionTasksByStart returns region r's tasks sorted by current start time.
// The result aliases a shared scratch buffer and is valid until the next
// call.
func (s *state) regionTasksByStart(r *regionState) []int {
	out := append(s.regionOrderBuf[:0], r.tasks...)
	s.regionOrderBuf = out
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (s.est[out[j]] < s.est[out[j-1]] ||
			(s.est[out[j]] == s.est[out[j-1]] && out[j] < out[j-1])); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// fitsDevice reports whether an additional requirement can be accounted on
// the (possibly shrunk) device, in fabric-cell granularity.
func (s *state) fitsDevice(extra resources.Vector) bool {
	return s.usedRes.Add(s.footprint(extra)).Fits(s.maxRes)
}
