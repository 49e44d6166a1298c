package sched

import (
	"fmt"

	"resched/internal/arch"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// Warm-start support: an epoch re-plan schedules the tail of a problem on a
// platform the committed prefix left busy — regions mid-reconfiguration or
// holding a module, processors occupied, reconfiguration controllers in
// flight, tasks released by frozen predecessors. The state below threads
// those floors through the eight phases; with a nil/empty initial state
// every hook degenerates to a no-op and the pipeline is bit-identical to
// the historical t=0 run.

// seedWarm imposes the initial platform state on a freshly reset pipeline
// state: release floors, pre-created warm regions (tail region i is warm
// region i, by construction order) and pin bookkeeping. Implementation
// selection has not run yet; pins are applied by applyPins afterwards.
func (s *state) seedWarm(ps *schedule.PlatformState) error {
	s.warm = ps
	// The release floors below are not reported one by one: the next
	// retime is a full pass.
	s.cpmWS.Invalidate()
	n := s.g.N()
	for t := 0; t < n && t < len(ps.Release); t++ {
		if ps.Release[t] > s.release[t] {
			s.release[t] = ps.Release[t]
		}
	}
	if len(ps.ReconfAvail) > s.a.ReconfiguratorCount() {
		return fmt.Errorf("sched: initial state has %d controller floors, architecture has %d controller(s)",
			len(ps.ReconfAvail), s.a.ReconfiguratorCount())
	}
	for i, wr := range ps.Regions {
		r := s.newRegion(wr.Res)
		r.warm = true
		r.availFrom = wr.Avail
		r.loaded = wr.Loaded
		if wr.Pinned < 0 {
			continue
		}
		if wr.Pinned >= n {
			return fmt.Errorf("sched: warm region %d pins task %d, graph has %d tasks", i, wr.Pinned, n)
		}
		task := s.g.Tasks[wr.Pinned]
		if wr.PinnedImpl < 0 || wr.PinnedImpl >= len(task.Impls) {
			return fmt.Errorf("sched: warm region %d pins task %d impl %d out of range", i, wr.Pinned, wr.PinnedImpl)
		}
		im := task.Impls[wr.PinnedImpl]
		if im.Kind != taskgraph.HW {
			return fmt.Errorf("sched: warm region %d pins task %d to software impl %q", i, wr.Pinned, im.Name)
		}
		if !im.Res.Fits(wr.Res) {
			return fmt.Errorf("sched: warm region %d (%v) cannot host pinned impl %q (%v)", i, wr.Res, im.Name, im.Res)
		}
		r.pinned, r.pinnedImpl = wr.Pinned, wr.PinnedImpl
	}
	return nil
}

// applyPins overrides phase 1's implementation selection for pinned tasks:
// the committed reconfiguration already loads a specific bitstream, so the
// tail plan has no freedom there.
func (s *state) applyPins() {
	for _, r := range s.regions {
		if r.warm && r.pinned >= 0 {
			s.setImpl(r.pinned, r.pinnedImpl)
		}
	}
}

// placePinned commits every pinned task into its warm region before the
// regions-definition walk runs, at or after the instant the in-flight
// reconfiguration completes. The ordering edges assignToRegion inserts keep
// the pin first in its region under all later delay propagation.
func (s *state) placePinned() error {
	for _, r := range s.regions {
		if !r.warm || r.pinned < 0 {
			continue
		}
		if err := s.delay(r.pinned, r.availFrom); err != nil {
			return err
		}
		if err := s.assignToRegion(r.pinned, r); err != nil {
			return err
		}
	}
	return nil
}

// regionFloor is the earliest instant task t may start executing in region
// r under the warm platform state. Cold regions have no floor. A pinned
// task starts as soon as its committed reconfiguration completes (no new
// load is needed); any other task must wait for the pin to run first. An
// unpinned warm region holds a stale module, so a first occupant needs a
// boundary reconfiguration after the region falls idle — the floor bakes
// that load in conservatively (module reuse may later waive it in phase 7;
// the floor only costs slack, never validity).
func (s *state) regionFloor(r *regionState, t int) int64 {
	if !r.warm {
		return 0
	}
	if r.pinned >= 0 {
		if t == r.pinned {
			return r.availFrom
		}
		return s.end(r.pinned)
	}
	return r.availFrom + r.reconf
}

// rtMin is the earliest start of a reconfiguration: after its ingoing task,
// or — for a boundary reconfiguration loading a warm region's first tail
// task (in < 0) — once the region falls idle.
func (s *state) rtMin(rt *reconfTask) int64 {
	if rt.in >= 0 {
		return s.end(rt.in)
	}
	return rt.region.availFrom
}

// SoftwareOnlyScheduleFrom builds the robust ladder's bottom rung: every
// task on its fastest software implementation, list-scheduled over the
// processors in topological order with earliest-finish processor selection.
// Under §III's assumptions (every task has a software implementation, at
// least one processor) it always succeeds — no fabric, regions or
// reconfigurations are involved, so there is nothing to floorplan and
// nothing to search. The result is deliberately conservative: a feasible
// anchor, not a competitive makespan.
//
// From a warm platform state ps (nil or empty for a cold start), release
// and processor floors are honoured, and pinned tasks — whose committed
// reconfigurations force them into their regions — execute there while
// everything else runs in software. The guarantee holds: no search, no
// floorplan, no new reconfigurations.
func SoftwareOnlyScheduleFrom(g *taskgraph.Graph, a *arch.Architecture, ps *schedule.PlatformState) (*schedule.Schedule, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	if g.N() > 0 && a.Processors <= 0 {
		return nil, fmt.Errorf("sched: %w: architecture has no processors", ErrNoSoftwareFallback)
	}
	if ps.Empty() {
		ps = nil
	}
	impl := make([]int, g.N())
	target := make([]schedule.Target, g.N())
	var regFree []int64
	if ps != nil {
		regFree = make([]int64, len(ps.Regions))
		for i, wr := range ps.Regions {
			regFree[i] = wr.Avail
			if wr.Pinned < 0 {
				continue
			}
			t := wr.Pinned
			if t >= g.N() || wr.PinnedImpl < 0 || wr.PinnedImpl >= len(g.Tasks[t].Impls) {
				return nil, fmt.Errorf("sched: warm region %d pins invalid task %d / impl %d", i, t, wr.PinnedImpl)
			}
			impl[t] = wr.PinnedImpl
			target[t] = schedule.Target{Kind: schedule.OnRegion, Index: i}
		}
	}
	for t, task := range g.Tasks {
		if target[t].Kind == schedule.OnRegion {
			continue // pinned
		}
		sw := task.FastestSW()
		if sw < 0 {
			return nil, fmt.Errorf("sched: %w: task %d (%s) has no software implementation",
				ErrNoSoftwareFallback, t, task.Name)
		}
		if task.Impls[sw].Time <= 0 {
			return nil, fmt.Errorf("sched: task %d (%s) has non-positive software time %d",
				t, task.Name, task.Impls[sw].Time)
		}
		impl[t] = sw
	}

	sch := schedule.New(g, a)
	sch.Algorithm = "SW-only"
	if ps != nil {
		for _, wr := range ps.Regions {
			sch.AddRegion(wr.Res)
		}
	}
	procFree := make([]int64, a.Processors)
	if ps != nil {
		for p := range procFree {
			if p < len(ps.ProcAvail) {
				procFree[p] = ps.ProcAvail[p]
			}
		}
	}
	for _, t := range order {
		var est int64
		if ps != nil && t < len(ps.Release) {
			est = ps.Release[t]
		}
		for _, p := range g.Pred(t) {
			if end := sch.Tasks[p].End + g.EdgeComm(p, t); end > est {
				est = end
			}
		}
		if target[t].Kind == schedule.OnRegion {
			ri := target[t].Index
			start := est
			if regFree[ri] > start {
				start = regFree[ri]
			}
			end := start + g.Tasks[t].Impls[impl[t]].Time
			regFree[ri] = end
			sch.Tasks[t] = schedule.Assignment{Impl: impl[t], Target: target[t], Start: start, End: end}
			continue
		}
		// Earliest-finishing processor, lowest index on ties.
		proc := 0
		for q := 1; q < a.Processors; q++ {
			if procFree[q] < procFree[proc] {
				proc = q
			}
		}
		start := est
		if procFree[proc] > start {
			start = procFree[proc]
		}
		end := start + g.Tasks[t].Impls[impl[t]].Time
		procFree[proc] = end
		sch.Tasks[t] = schedule.Assignment{
			Impl:   impl[t],
			Target: schedule.Target{Kind: schedule.OnProcessor, Index: proc},
			Start:  start,
			End:    end,
		}
	}
	sch.ComputeMakespan()
	return sch, nil
}
