package isk

import (
	"fmt"

	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// pin records the forced mapping of a task whose reconfiguration the
// committed prefix already performed: the task must execute first in its
// warm region with the committed implementation.
type pin struct {
	region int
	impl   int
}

// seedWarm initialises the timeline from a committed platform state: warm
// regions become committed regions 0..len(ps.Regions)-1 (preserving the
// index mapping CheckAgainst validates), busy-until floors seed the region,
// processor and controller timelines, and release floors feed ready().
// A nil or empty state leaves the timeline untouched.
func (st *timeline) seedWarm(ps *schedule.PlatformState) error {
	if ps == nil || ps.Empty() {
		return nil
	}
	if len(ps.ReconfAvail) > len(st.slots) {
		return fmt.Errorf("isk: initial state carries %d in-flight reconfigurations, architecture has %d controllers",
			len(ps.ReconfAvail), len(st.slots))
	}
	// In-flight reconfigurations occupy their controllers from the epoch
	// start: a busy slot [0, floor) makes slotOn skip past them.
	for c, f := range ps.ReconfAvail {
		if f > 0 {
			st.insertSlot(c, 0, f)
		}
	}
	for p, f := range ps.ProcAvail {
		if p < len(st.procFree) && f > st.procFree[p] {
			st.procFree[p] = f
		}
	}
	for t, f := range ps.Release {
		if t >= st.g.N() {
			break
		}
		if f > 0 {
			if st.release == nil {
				st.release = make([]int64, st.g.N())
			}
			st.release[t] = f
		}
	}
	for i := range ps.Regions {
		wr := &ps.Regions[i]
		r := iskRegion{
			id:         i,
			res:        wr.Res,
			reconfTime: st.a.ReconfTime(wr.Res),
			freeAt:     wr.Avail,
			loaded:     wr.Loaded,
			lastTask:   -1,
			pinned:     -1,
		}
		if wr.Pinned >= 0 {
			t := wr.Pinned
			if t >= st.g.N() {
				return fmt.Errorf("isk: warm region %d pins task %d, graph has %d tasks", i, t, st.g.N())
			}
			task := st.g.Tasks[t]
			if wr.PinnedImpl < 0 || wr.PinnedImpl >= len(task.Impls) {
				return fmt.Errorf("isk: warm region %d pins task %d to implementation %d, task has %d", i, t, wr.PinnedImpl, len(task.Impls))
			}
			im := task.Impls[wr.PinnedImpl]
			if im.Kind != taskgraph.HW {
				return fmt.Errorf("isk: warm region %d pins task %d to software impl %q", i, t, im.Name)
			}
			if !im.Res.Fits(wr.Res) {
				return fmt.Errorf("isk: warm region %d (%v) cannot hold pinned impl %q (%v)", i, wr.Res, im.Name, im.Res)
			}
			r.pinned = t
			if st.pins == nil {
				st.pins = make(map[int]pin)
			}
			st.pins[t] = pin{region: i, impl: wr.PinnedImpl}
		}
		st.regions = append(st.regions, r)
		st.usedRes = st.usedRes.Add(st.footprint(wr.Res))
	}
	return nil
}

// locked reports whether region r is reserved for a pinned task that has
// not been scheduled yet: until the pin executes, no other task may enter
// the region (the commit-boundary contract requires the pinned task first).
func (st *timeline) locked(r *iskRegion) bool {
	return r.pinned >= 0 && st.impl[r.pinned] < 0
}
