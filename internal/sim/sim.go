// Package sim executes a schedule's decisions on a discrete-event model of
// the target platform: processor cores, reconfigurable regions, the
// reconfiguration controllers and inter-task communication. The simulator
// keeps the schedule's *orders* (per processor and per region) but lets
// every action start as early as the platform allows, so it both
// dynamically validates a schedule and measures how much air the static
// start times contain (schedulers only ever move starts later, never
// earlier).
//
// There is one event loop with two dispatch rules for reconfigurations:
//
//   - replay (Execute, ExecuteFrom) keeps the plan's controller queues
//     (assignChannels) and issues each load as soon as its region and
//     controller are free — the plan's prefetching, executed;
//   - issue-at-dispatch (ExecuteOnDemand) additionally holds each load
//     until the data of the task it serves is ready and grants it the
//     earliest-free controller at that instant — the on-demand loading
//     baseline of systems without prefetching.
//
// Both rules start from warm floors (schedule.PlatformState): processor,
// region and controller availability and per-task release times. The
// tests check the replay rule against an analytic longest-path oracle
// (ASAP, in asap_test.go).
//
// The paper's evaluation is simulation-based (§VII); this package is the
// corresponding executable model.
package sim

import (
	"fmt"
	"sort"

	"resched/internal/schedule"
)

// plannedOrder lists the schedule's reconfiguration indices in scheduled
// start order. Equal starts tie-break on the reconfiguration index, an
// explicit total order: channel assignment (and with it the executed
// timeline) must not depend on the schedule's emission order.
func plannedOrder(s *schedule.Schedule) []int {
	order := make([]int, len(s.Reconfs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if sa, sb := s.Reconfs[ia].Start, s.Reconfs[ib].Start; sa != sb {
			return sa < sb
		}
		return ia < ib
	})
	return order
}

// assignChannels partitions the schedule's reconfigurations onto the
// architecture's reconfiguration controllers: scheduled-start order, each
// reconfiguration going to the controller that frees up first (greedy
// interval partitioning, which succeeds whenever the schedule respects the
// controller capacity). The result is one queue of reconfiguration indices
// per controller.
func assignChannels(s *schedule.Schedule) [][]int {
	n := s.Arch.ReconfiguratorCount()
	queues := make([][]int, n)
	free := make([]int64, n)
	for _, idx := range plannedOrder(s) {
		best := earliest(free)
		queues[best] = append(queues[best], idx)
		free[best] = s.Reconfs[idx].End
	}
	return queues
}

// earliest returns the controller that frees up first, the lowest index on
// ties.
func earliest(free []int64) int {
	best := 0
	for c := 1; c < len(free); c++ {
		if free[c] < free[best] {
			best = c
		}
	}
	return best
}

// Result is the executed timeline of a schedule.
type Result struct {
	// Start and End are the executed task times, indexed by task ID.
	Start, End []int64
	// ReconfStart and ReconfEnd are the executed reconfiguration times,
	// parallel to the schedule's Reconfs slice.
	ReconfStart, ReconfEnd []int64
	// Makespan is the executed completion time.
	Makespan int64
	// Events counts processed simulation events.
	Events int
}

// Slack returns the difference between the schedule's recorded makespan and
// the executed one: how much the static timing over-approximated.
func (r *Result) Slack(s *schedule.Schedule) int64 { return s.Makespan - r.Makespan }

// Apply returns a copy of s that carries the executed times: the same
// decisions, re-timed.
func (r *Result) Apply(s *schedule.Schedule) *schedule.Schedule {
	c := s.Clone()
	for t := range c.Tasks {
		c.Tasks[t].Start, c.Tasks[t].End = r.Start[t], r.End[t]
	}
	for i := range c.Reconfs {
		c.Reconfs[i].Start, c.Reconfs[i].End = r.ReconfStart[i], r.ReconfEnd[i]
	}
	c.ComputeMakespan()
	return c
}

// event is one entry of the simulation calendar.
type event struct {
	time int64
	// seq breaks ties deterministically in calendar order.
	seq  int
	kind eventKind
	id   int // task ID or reconfiguration index
}

type eventKind int

const (
	taskDone eventKind = iota
	reconfDone
	// wake re-runs the dispatcher when a data transfer lands or a warm
	// floor passes.
	wake
)

// calendar is a min-heap of events ordered by (time, seq). It is typed
// rather than a container/heap so that posting an event does not box it.
type calendar []event

func (c calendar) less(i, j int) bool {
	if c[i].time != c[j].time {
		return c[i].time < c[j].time
	}
	return c[i].seq < c[j].seq
}

func (c *calendar) add(e event) {
	h := append(*c, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*c = h
}

func (c *calendar) next() event {
	h := *c
	top := h[0]
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < len(h) && h.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*c = h
	return top
}

// Execute runs the schedule on the platform model and returns the executed
// timeline. The schedule must be structurally valid (schedule.Check); the
// simulator re-verifies the dynamic conditions as it goes and fails loudly
// on any inconsistency (a deadlock means the schedule's orders are cyclic).
func Execute(s *schedule.Schedule) (*Result, error) {
	return run(s, nil, false)
}

// ExecuteFrom runs the schedule with per-task release floors: task t may
// not start before release[t] no matter how early the platform frees up.
// This is the arrival-driven oracle for online scheduling — a job arriving
// at time A is modelled as release A on each of its tasks — and a nil or
// short slice leaves the unmapped tasks unconstrained (Execute semantics).
func ExecuteFrom(s *schedule.Schedule, release []int64) (*Result, error) {
	return run(s, &schedule.PlatformState{Release: release}, false)
}

// ExecuteOnDemand runs the schedule under the issue-at-dispatch rule from
// the warm platform ps (nil is a cold platform): every decision is kept,
// but a reconfiguration may not start before the data of the task it loads
// is ready, and it takes the earliest-free controller at that instant
// (lowest index on ties). Loads ready at the same instant are granted in
// region order.
//
// Controllers are granted dynamically because the plan's static queues can
// deadlock under the data clamp: the load a controller serves first may
// wait for data produced behind the load it would serve second.
func ExecuteOnDemand(s *schedule.Schedule, ps *schedule.PlatformState) (*Result, error) {
	return run(s, ps, true)
}

// run is the event loop behind every entry point; onDemand selects the
// issue-at-dispatch rule over replay.
func run(s *schedule.Schedule, ps *schedule.PlatformState, onDemand bool) (*Result, error) {
	if ps == nil {
		ps = &schedule.PlatformState{}
	}
	n := s.Graph.N()
	res := &Result{
		Start:       make([]int64, n),
		End:         make([]int64, n),
		ReconfStart: make([]int64, len(s.Reconfs)),
		ReconfEnd:   make([]int64, len(s.Reconfs)),
	}
	for t := range res.Start {
		res.Start[t] = -1
		res.End[t] = -1
	}
	for i := range res.ReconfStart {
		res.ReconfStart[i] = -1
		res.ReconfEnd[i] = -1
	}

	// Static orders extracted from the schedule, and the warm floors of
	// every resource: procFree, regionFree and chFree hold the instant each
	// is next free, starting at its availability in ps.
	procQueue := make([][]int, s.Arch.Processors)
	procFree := make([]int64, s.Arch.Processors)
	for p := range procQueue {
		procQueue[p] = s.ProcessorTasks(p)
		if p < len(ps.ProcAvail) {
			procFree[p] = ps.ProcAvail[p]
		}
	}
	regionQueue := make([][]int, len(s.Regions))
	regionAvail := make([]int64, len(s.Regions))
	for r := range regionQueue {
		regionQueue[r] = s.RegionTasks(r)
		if r < len(ps.Regions) {
			regionAvail[r] = ps.Regions[r].Avail
		}
	}
	regionFree := append([]int64(nil), regionAvail...)
	chFree := make([]int64, s.Arch.ReconfiguratorCount())
	copy(chFree, ps.ReconfAvail)
	// Replay serves one static queue per controller; issue-at-dispatch
	// serves one queue per region, in planned order, and picks the
	// controller when a load issues.
	var loadQueue [][]int
	if onDemand {
		loadQueue = make([][]int, len(s.Regions))
		for _, idx := range plannedOrder(s) {
			r := s.Reconfs[idx].Region
			loadQueue[r] = append(loadQueue[r], idx)
		}
	} else {
		loadQueue = assignChannels(s)
	}
	// reconfFor[t] is the reconfiguration index loading task t, or -1.
	reconfFor := make([]int, n)
	for t := range reconfFor {
		reconfFor[t] = -1
	}
	for i, rc := range s.Reconfs {
		if rc.OutTask >= 0 && rc.OutTask < n {
			reconfFor[rc.OutTask] = i
		}
	}

	// Mutable platform state.
	procHead := make([]int, s.Arch.Processors) // next index into procQueue
	regionHead := make([]int, len(s.Regions))
	loadHead := make([]int, len(loadQueue))
	pendingPreds := make([]int, n)
	for t := 0; t < n; t++ {
		pendingPreds[t] = len(s.Graph.Pred(t))
	}
	// dataAt[t] is the time all inputs of t have arrived (valid once
	// pendingPreds[t] == 0). Release floors seed it: arrival data is one
	// more input the dispatcher waits for.
	dataAt := make([]int64, n)
	copy(dataAt, ps.Release)

	cal := make(calendar, 0, n+len(s.Reconfs))
	seq := 0
	now := int64(0)
	ready := func(t int) bool { return pendingPreds[t] == 0 && dataAt[t] <= now }
	post := func(t int64, kind eventKind, id int) {
		seq++
		cal.add(event{time: t, seq: seq, kind: kind, id: id})
	}
	startTask := func(task int) int64 {
		res.Start[task] = now
		res.End[task] = now + s.Impl(task).Time
		post(res.End[task], taskDone, task)
		return res.End[task]
	}

	// dispatch starts everything that can start at the current time. One
	// pass suffices: a start frees nothing before its own end event, which
	// re-runs the dispatcher (at the same instant for a zero-length item).
	dispatch := func() {
		// Processors.
		for p, queue := range procQueue {
			if procHead[p] >= len(queue) || procFree[p] > now {
				continue
			}
			if t := queue[procHead[p]]; ready(t) {
				procHead[p]++
				procFree[p] = startTask(t)
			}
		}
		// Regions.
		for r, queue := range regionQueue {
			if regionHead[r] >= len(queue) || regionFree[r] > now {
				continue
			}
			t := queue[regionHead[r]]
			if !ready(t) {
				continue
			}
			if rc := reconfFor[t]; rc >= 0 && (res.ReconfEnd[rc] < 0 || res.ReconfEnd[rc] > now) {
				continue
			}
			regionHead[r]++
			regionFree[r] = startTask(t)
		}
		// Reconfigurations: each queue is served strictly in order, one
		// load at a time per controller.
		for q, queue := range loadQueue {
			for loadHead[q] < len(queue) {
				idx := queue[loadHead[q]]
				rc := s.Reconfs[idx]
				// The region must have finished its previous occupant.
				if rc.InTask >= 0 {
					if res.End[rc.InTask] < 0 || res.End[rc.InTask] > now {
						break
					}
				} else if regionAvail[rc.Region] > now {
					break
				}
				c := q
				if onDemand {
					if rc.OutTask >= 0 && !ready(rc.OutTask) {
						break
					}
					c = earliest(chFree)
				}
				if chFree[c] > now {
					break
				}
				loadHead[q]++
				res.ReconfStart[idx] = now
				res.ReconfEnd[idx] = now + s.Regions[rc.Region].ReconfTime
				chFree[c] = res.ReconfEnd[idx]
				post(res.ReconfEnd[idx], reconfDone, idx)
			}
		}
	}

	// Anything held only by a floor needs a wake-up: no completion will
	// ever re-run the dispatcher for a source task's release or a warm
	// resource falling idle.
	for t := 0; t < n; t++ {
		if pendingPreds[t] == 0 && dataAt[t] > 0 {
			post(dataAt[t], wake, t)
		}
	}
	for _, floors := range [][]int64{procFree, regionFree, chFree} {
		for _, f := range floors {
			if f > 0 {
				post(f, wake, -1)
			}
		}
	}

	dispatch()
	for len(cal) > 0 {
		now = cal[0].time
		for len(cal) > 0 && cal[0].time == now {
			e := cal.next()
			res.Events++
			if e.kind == taskDone {
				for i, w := range s.Graph.Succ(e.id) {
					pendingPreds[w]--
					if arrive := now + s.Graph.SuccComm(e.id)[i]; arrive > dataAt[w] {
						dataAt[w] = arrive
					}
					if pendingPreds[w] == 0 && dataAt[w] > now {
						// Wake up when the last transfer lands.
						post(dataAt[w], wake, w)
					}
				}
			}
		}
		dispatch()
	}

	// Completeness: every task and reconfiguration must have executed.
	for t := 0; t < n; t++ {
		if res.Start[t] < 0 {
			return nil, fmt.Errorf("sim: deadlock — task %d never became runnable (cyclic schedule orders?)", t)
		}
		if res.End[t] > res.Makespan {
			res.Makespan = res.End[t]
		}
	}
	for i := range s.Reconfs {
		if res.ReconfStart[i] < 0 {
			return nil, fmt.Errorf("sim: deadlock — reconfiguration %d never issued", i)
		}
	}
	return res, nil
}
