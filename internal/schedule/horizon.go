package schedule

import (
	"fmt"
	"sort"

	"resched/internal/resources"
)

// This file defines the epoch model of the online scheduling engine: a
// schedule is split at a commit instant into a frozen prefix (placements and
// reconfigurations that have started — facts the platform is already
// executing) and a re-plannable tail. Freeze derives the warm platform state
// the prefix leaves behind; CheckAgainst validates a tail schedule against
// that state the same way Check validates an offline schedule against an
// empty platform.

// WarmRegion is the state one reconfigurable region carries across a commit
// boundary: its footprint, when it falls idle, which module is then
// resident, and — when a frozen reconfiguration already loads the module of
// a not-yet-started task — the task that is pinned to run there first.
type WarmRegion struct {
	// Res is the region's resource requirement (it exists on the device,
	// so it keeps counting against capacity).
	Res resources.Vector
	// Avail is the earliest instant (relative to the commit time) at which
	// the region can start a new execution or reconfiguration: the end of
	// its last frozen execution or in-flight reconfiguration.
	Avail int64
	// Loaded names the implementation resident at Avail ("" when unknown).
	Loaded string
	// Pinned is the task that must execute first in this region, or -1.
	// A pin records a frozen reconfiguration whose outgoing task has not
	// started yet: the bitstream is (being) loaded, so the plan must keep
	// that task here or the committed reconfiguration dangles.
	Pinned int
	// PinnedImpl is the implementation index the frozen reconfiguration
	// loaded for Pinned (meaningful only when Pinned >= 0).
	PinnedImpl int
}

// PlatformState is the warm initial state a re-plan starts from. All times
// are relative to the commit boundary (0 = "now"); the zero value and nil
// both describe the cold platform of an offline solve, and every solver
// treats them identically to the historical t=0 start.
type PlatformState struct {
	// Regions are the regions with frozen content, in a stable order the
	// re-plan must preserve: tail region i is warm region i.
	Regions []WarmRegion
	// ProcAvail[p] is the earliest start on processor p (missing entries
	// and short slices mean 0: the processor is free).
	ProcAvail []int64
	// ReconfAvail[c] is the earliest start on reconfiguration controller c
	// (ends of in-flight reconfigurations, sorted descending).
	ReconfAvail []int64
	// Release[t] is the externally imposed earliest start of task t — job
	// arrival times and data from frozen predecessors. Indexed by the task
	// IDs of the graph being re-planned; nil means no floors.
	Release []int64
}

// Empty reports whether the state imposes nothing beyond a cold platform.
func (ps *PlatformState) Empty() bool {
	if ps == nil {
		return true
	}
	if len(ps.Regions) > 0 {
		return false
	}
	for _, v := range ps.ProcAvail {
		if v != 0 {
			return false
		}
	}
	for _, v := range ps.ReconfAvail {
		if v != 0 {
			return false
		}
	}
	for _, v := range ps.Release {
		if v != 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (ps *PlatformState) Clone() *PlatformState {
	if ps == nil {
		return nil
	}
	c := &PlatformState{}
	c.Regions = append([]WarmRegion(nil), ps.Regions...)
	c.ProcAvail = append([]int64(nil), ps.ProcAvail...)
	c.ReconfAvail = append([]int64(nil), ps.ReconfAvail...)
	c.Release = append([]int64(nil), ps.Release...)
	return c
}

// Horizon is the commit boundary of a schedule: everything that started
// strictly before Commit is frozen, and Platform is the warm state the
// frozen prefix leaves for the tail re-plan (times relative to Commit).
type Horizon struct {
	// Commit is the boundary instant in the schedule's absolute time.
	Commit int64
	// Frozen[t] reports whether task t started before Commit.
	Frozen []bool
	// FrozenReconf[i] reports whether reconfiguration i started before
	// Commit (parallel to the schedule's Reconfs slice).
	FrozenReconf []bool
	// RegionID[i] is the schedule-level region index warm region i
	// corresponds to; regions without frozen content are not listed (the
	// tail plan is free to re-create or drop them).
	RegionID []int
	// LastFrozenTask[i] is the last frozen task executed in warm region i,
	// or -1 when the region only carries a frozen initial reconfiguration.
	LastFrozenTask []int
	// Platform is the warm state, relative to Commit. Release holds the
	// frozen-predecessor floors of every unstarted task (indexed by the
	// schedule's task IDs); callers fold arrival times in on top.
	Platform PlatformState
}

// Freeze splits a complete schedule at the commit instant and derives the
// warm platform state of its frozen prefix. The schedule must be valid
// (schedule.Check); Freeze itself only guards against structural breakage.
func Freeze(s *Schedule, commit int64) (*Horizon, error) {
	n := s.Graph.N()
	if len(s.Tasks) != n {
		return nil, fmt.Errorf("schedule: freeze: schedule covers %d tasks, graph has %d", len(s.Tasks), n)
	}
	h := &Horizon{
		Commit:       commit,
		Frozen:       make([]bool, n),
		FrozenReconf: make([]bool, len(s.Reconfs)),
	}
	for t, a := range s.Tasks {
		h.Frozen[t] = a.Start < commit
	}
	for i, rc := range s.Reconfs {
		h.FrozenReconf[i] = rc.Start < commit
	}

	// Per-region frozen content: last execution end, last frozen
	// reconfiguration, resident module.
	type regAcc struct {
		hasContent bool
		avail      int64 // max end of frozen events
		loaded     string
		loadedAt   int64 // event end that set loaded
		lastTask   int
		lastTaskAt int64
		pinned     int
		pinnedImpl int
	}
	acc := make([]regAcc, len(s.Regions))
	for i := range acc {
		acc[i].lastTask = -1
		acc[i].pinned = -1
	}
	for t, a := range s.Tasks {
		if !h.Frozen[t] || a.Target.Kind != OnRegion {
			continue
		}
		r := &acc[a.Target.Index]
		r.hasContent = true
		if a.End > r.avail {
			r.avail = a.End
		}
		// An execution implies its module was resident for its whole slot.
		if a.End > r.loadedAt {
			r.loaded, r.loadedAt = s.Impl(t).Name, a.End
		}
		if a.End > r.lastTaskAt || (a.End == r.lastTaskAt && t > r.lastTask) {
			r.lastTask, r.lastTaskAt = t, a.End
		}
	}
	for i, rc := range s.Reconfs {
		if !h.FrozenReconf[i] {
			continue
		}
		if rc.Region < 0 || rc.Region >= len(s.Regions) {
			return nil, fmt.Errorf("schedule: freeze: reconfiguration %d region %d out of range", i, rc.Region)
		}
		r := &acc[rc.Region]
		r.hasContent = true
		if rc.End > r.avail {
			r.avail = rc.End
		}
		if rc.End > r.loadedAt {
			r.loaded, r.loadedAt = s.Impl(rc.OutTask).Name, rc.End
		}
		// A frozen reconfiguration whose outgoing task has not started pins
		// that task: the bitstream is committed, the plan must honour it.
		// At most one such reconfiguration can exist per region (each later
		// reconfiguration requires the previous outgoing task to have run).
		if rc.OutTask >= 0 && rc.OutTask < n && !h.Frozen[rc.OutTask] {
			if r.pinned >= 0 {
				return nil, fmt.Errorf("schedule: freeze: region %d has two frozen reconfigurations with unstarted outgoing tasks (%d and %d)", rc.Region, r.pinned, rc.OutTask)
			}
			r.pinned = rc.OutTask
			r.pinnedImpl = s.Tasks[rc.OutTask].Impl
		}
	}
	for i, r := range acc {
		if !r.hasContent {
			continue
		}
		avail := r.avail - commit
		if avail < 0 {
			avail = 0
		}
		h.RegionID = append(h.RegionID, i)
		h.LastFrozenTask = append(h.LastFrozenTask, r.lastTask)
		h.Platform.Regions = append(h.Platform.Regions, WarmRegion{
			Res:        s.Regions[i].Res,
			Avail:      avail,
			Loaded:     r.loaded,
			Pinned:     r.pinned,
			PinnedImpl: r.pinnedImpl,
		})
	}

	// Processor floors: end of the last frozen task on each core.
	h.Platform.ProcAvail = make([]int64, s.Arch.Processors)
	for t, a := range s.Tasks {
		if !h.Frozen[t] || a.Target.Kind != OnProcessor {
			continue
		}
		if v := a.End - commit; v > h.Platform.ProcAvail[a.Target.Index] {
			h.Platform.ProcAvail[a.Target.Index] = v
		}
	}

	// Controller floors: ends of in-flight frozen reconfigurations, sorted
	// descending and assigned to the controllers in order. Only the
	// multiset matters for capacity, so the assignment is canonical.
	var inflight []int64
	for i, rc := range s.Reconfs {
		if h.FrozenReconf[i] && rc.End > commit {
			inflight = append(inflight, rc.End-commit)
		}
	}
	sort.Slice(inflight, func(a, b int) bool { return inflight[a] > inflight[b] })
	cap := s.Arch.ReconfiguratorCount()
	if len(inflight) > cap {
		return nil, fmt.Errorf("schedule: freeze: %d reconfigurations in flight at commit %d, architecture has %d controller(s)", len(inflight), commit, cap)
	}
	h.Platform.ReconfAvail = make([]int64, cap)
	copy(h.Platform.ReconfAvail, inflight)

	// Frozen-predecessor release floors for every unstarted task.
	h.Platform.Release = make([]int64, n)
	edges, comm := s.Graph.EdgesComm()
	for i, e := range edges {
		u, v := e[0], e[1]
		if !h.Frozen[u] || h.Frozen[v] {
			continue
		}
		if f := s.Tasks[u].End + comm[i] - commit; f > 0 && f > h.Platform.Release[v] {
			h.Platform.Release[v] = f
		}
	}
	return h, nil
}

// CheckAgainst validates a tail schedule against a frozen prefix: the usual
// offline conditions (Check) plus the warm-platform constraints the prefix
// imposes — release floors, busy processors, regions mid-reconfiguration,
// pinned tasks and controller floors. The tail's times are relative to the
// commit boundary, its task IDs index its own (tail) graph, and tail region
// i must be warm region i. A nil or empty state degenerates to plain Check.
func CheckAgainst(ps *PlatformState, tail *Schedule) []error {
	errs := Check(tail)
	if ps.Empty() {
		return errs
	}
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if len(errs) > 0 {
		// Structural breakage makes the warm checks unreliable.
		return errs
	}

	// Release floors.
	for t, a := range tail.Tasks {
		if t < len(ps.Release) && a.Start < ps.Release[t] {
			bad("warm: task %d starts at %d before its release %d", t, a.Start, ps.Release[t])
		}
	}
	// Processor floors.
	for t, a := range tail.Tasks {
		if a.Target.Kind == OnProcessor && a.Target.Index < len(ps.ProcAvail) {
			if fl := ps.ProcAvail[a.Target.Index]; a.Start < fl {
				bad("warm: task %d starts at %d on processor %d busy until %d", t, a.Start, a.Target.Index, fl)
			}
		}
	}
	// Warm regions: identity, floors, pins and boundary reconfigurations.
	if len(tail.Regions) < len(ps.Regions) {
		bad("warm: tail has %d regions, prefix carries %d warm regions", len(tail.Regions), len(ps.Regions))
		return errs
	}
	// Index the tail's boundary reconfigurations (InTask < 0) by region.
	boundary := make(map[int]*Reconfiguration)
	for i := range tail.Reconfs {
		rc := &tail.Reconfs[i]
		if rc.InTask < 0 {
			boundary[rc.Region] = rc
		}
	}
	for i, wr := range ps.Regions {
		if tail.Regions[i].Res != wr.Res {
			bad("warm: tail region %d has footprint %v, warm region needs %v", i, tail.Regions[i].Res, wr.Res)
			continue
		}
		tasks := tail.RegionTasks(i)
		for _, t := range tasks {
			if tail.Tasks[t].Start < wr.Avail {
				bad("warm: task %d starts at %d in region %d busy until %d", t, tail.Tasks[t].Start, i, wr.Avail)
			}
		}
		for _, rc := range tail.Reconfs {
			if rc.Region == i && rc.Start < wr.Avail {
				bad("warm: reconfiguration of region %d starts at %d before the region falls idle at %d", i, rc.Start, wr.Avail)
			}
		}
		if wr.Pinned >= 0 {
			if len(tasks) == 0 {
				bad("warm: region %d pins task %d but the tail schedules nothing there", i, wr.Pinned)
				continue
			}
			first := tasks[0]
			if first != wr.Pinned {
				bad("warm: region %d pins task %d first, tail runs task %d first", i, wr.Pinned, first)
			}
			if a := tail.Tasks[wr.Pinned]; a.Target.Kind != OnRegion || a.Target.Index != i {
				bad("warm: pinned task %d not assigned to region %d", wr.Pinned, i)
			} else if a.Impl != wr.PinnedImpl {
				bad("warm: pinned task %d uses impl %d, committed reconfiguration loaded impl %d", wr.Pinned, a.Impl, wr.PinnedImpl)
			}
			continue
		}
		if len(tasks) == 0 {
			continue
		}
		// Unpinned warm region: the first tail task needs a boundary
		// reconfiguration unless module reuse lets it keep the resident
		// bitstream.
		first := tasks[0]
		if tail.ModuleReuse && wr.Loaded != "" && tail.Impl(first).Name == wr.Loaded {
			continue
		}
		rc, ok := boundary[i]
		if !ok {
			bad("warm: region %d holds %q, first tail task %d (%q) has no boundary reconfiguration", i, wr.Loaded, first, tail.Impl(first).Name)
			continue
		}
		if rc.OutTask != first {
			bad("warm: region %d boundary reconfiguration loads task %d, first tail task is %d", i, rc.OutTask, first)
		}
	}
	// Controller capacity including in-flight floors: model each floor as a
	// busy interval [0, floor).
	if len(tail.Reconfs) > 0 {
		type endpoint struct {
			t     int64
			delta int
		}
		var pts []endpoint
		for _, rc := range tail.Reconfs {
			pts = append(pts, endpoint{rc.Start, 1}, endpoint{rc.End, -1})
		}
		for _, fl := range ps.ReconfAvail {
			if fl > 0 {
				pts = append(pts, endpoint{0, 1}, endpoint{fl, -1})
			}
		}
		sort.Slice(pts, func(i, j int) bool {
			if pts[i].t != pts[j].t {
				return pts[i].t < pts[j].t
			}
			return pts[i].delta < pts[j].delta
		})
		inFlight, worst := 0, 0
		var worstAt int64
		for _, p := range pts {
			inFlight += p.delta
			if inFlight > worst {
				worst, worstAt = inFlight, p.t
			}
		}
		if cap := tail.Arch.ReconfiguratorCount(); worst > cap {
			bad("warm: %d reconfigurations in flight at t=%d including committed ones, architecture has %d controller(s)", worst, worstAt, cap)
		}
	}
	return errs
}
