// Package sim executes a schedule's decisions on a discrete-event model of
// the target platform: processor cores, reconfigurable regions, the single
// reconfiguration controller and inter-task communication. The simulator
// keeps the schedule's *orders* (per processor, per region, and on the
// reconfigurator) but lets every action start as early as the platform
// allows, so it both dynamically validates a schedule and measures how much
// air the static start times contain (schedulers only ever move starts
// later, never earlier).
//
// The paper's evaluation is simulation-based (§VII); this package is the
// corresponding executable model.
package sim

import (
	"container/heap"
	"fmt"
	"sort"

	"resched/internal/schedule"
)

// assignChannels partitions the schedule's reconfigurations onto the
// architecture's reconfiguration controllers: scheduled-start order, each
// reconfiguration going to the controller that frees up first (greedy
// interval partitioning, which succeeds whenever the schedule respects the
// controller capacity). The result is one queue of reconfiguration indices
// per controller.
func assignChannels(s *schedule.Schedule) [][]int {
	order := make([]int, len(s.Reconfs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		ra, rb := s.Reconfs[ia], s.Reconfs[ib]
		if ra.Start != rb.Start {
			return ra.Start < rb.Start
		}
		// Equal starts tie-break on the reconfiguration index, an explicit
		// total order: channel assignment (and with it the executed timeline)
		// must not depend on the schedule's emission order.
		return ia < ib
	})
	n := s.Arch.ReconfiguratorCount()
	queues := make([][]int, n)
	free := make([]int64, n)
	for _, idx := range order {
		best := 0
		for c := 1; c < n; c++ {
			if free[c] < free[best] {
				best = c
			}
		}
		queues[best] = append(queues[best], idx)
		free[best] = s.Reconfs[idx].End
	}
	return queues
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
	// wake re-runs the dispatcher when a data transfer lands.
	wake
)

// calendar is a min-heap of events ordered by (time, seq).
type calendar []event

func (c calendar) Len() int { return len(c) }
func (c calendar) Less(i, j int) bool {
	if c[i].time != c[j].time {
		return c[i].time < c[j].time
	}
	return c[i].seq < c[j].seq
}
func (c calendar) Swap(i, j int)   { c[i], c[j] = c[j], c[i] }
func (c *calendar) Push(x any)     { *c = append(*c, x.(event)) }
func (c *calendar) Pop() any       { old := *c; e := old[len(old)-1]; *c = old[:len(old)-1]; return e }
func (c calendar) peekTime() int64 { return c[0].time }
func (c *calendar) next() event    { return heap.Pop(c).(event) }
func (c *calendar) add(e event)    { heap.Push(c, e) }
func (c calendar) empty() bool     { return len(c) == 0 }

// Execute runs the schedule on the platform model and returns the executed
// timeline. The schedule must be structurally valid (schedule.Check); the
// simulator re-verifies the dynamic conditions as it goes and fails loudly
// on any inconsistency (a deadlock means the schedule's orders are cyclic).
func Execute(s *schedule.Schedule) (*Result, error) {
	return ExecuteFrom(s, nil)
}

// ExecuteFrom runs the schedule with per-task release floors: task t may
// not start before release[t] no matter how early the platform frees up.
// This is the arrival-driven oracle for online scheduling — a job arriving
// at time A is modelled as release A on each of its tasks — and a nil or
// short slice leaves the unmapped tasks unconstrained (Execute semantics).
func ExecuteFrom(s *schedule.Schedule, release []int64) (*Result, error) {
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

	// Static orders extracted from the schedule.
	procQueue := make([][]int, s.Arch.Processors)
	for p := range procQueue {
		procQueue[p] = s.ProcessorTasks(p)
	}
	regionQueue := make([][]int, len(s.Regions))
	for r := range regionQueue {
		regionQueue[r] = s.RegionTasks(r)
	}
	icapQueues := assignChannels(s)
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
	icapHead := make([]int, len(icapQueues))
	pendingPreds := make([]int, n)
	for t := 0; t < n; t++ {
		pendingPreds[t] = len(s.Graph.Pred(t))
	}
	// dataAt[t] is the time all inputs of t have arrived (valid once
	// pendingPreds[t] == 0). Release floors seed it: arrival data is one
	// more input the dispatcher waits for.
	dataAt := make([]int64, n)
	for t := 0; t < n && t < len(release); t++ {
		dataAt[t] = release[t]
	}

	var cal calendar
	seq := 0
	now := int64(0)

	startTask := func(t int64, task int) {
		res.Start[task] = t
		end := t + s.Impl(task).Time
		res.End[task] = end
		seq++
		cal.add(event{time: end, seq: seq, kind: taskDone, id: task})
	}
	startReconf := func(t int64, idx int) {
		rc := s.Reconfs[idx]
		res.ReconfStart[idx] = t
		end := t + s.Regions[rc.Region].ReconfTime
		res.ReconfEnd[idx] = end
		seq++
		cal.add(event{time: end, seq: seq, kind: reconfDone, id: idx})
	}

	// dispatch starts everything that can start at the current time; it
	// loops because one start can enable another at the same instant.
	dispatch := func() {
		for progress := true; progress; {
			progress = false
			// Processors.
			for p := range procQueue {
				if procHead[p] >= len(procQueue[p]) {
					continue
				}
				t := procQueue[p][procHead[p]]
				if res.Start[t] >= 0 || pendingPreds[t] > 0 || dataAt[t] > now {
					continue
				}
				if procHead[p] > 0 {
					if prev := procQueue[p][procHead[p]-1]; res.End[prev] < 0 || res.End[prev] > now {
						continue
					}
				}
				procHead[p]++
				startTask(now, t)
				progress = true
			}
			// Regions.
			for r := range regionQueue {
				if regionHead[r] >= len(regionQueue[r]) {
					continue
				}
				t := regionQueue[r][regionHead[r]]
				if res.Start[t] >= 0 || pendingPreds[t] > 0 || dataAt[t] > now {
					continue
				}
				if regionHead[r] > 0 {
					if prev := regionQueue[r][regionHead[r]-1]; res.End[prev] < 0 || res.End[prev] > now {
						continue
					}
				}
				if rc := reconfFor[t]; rc >= 0 {
					if res.ReconfEnd[rc] < 0 || res.ReconfEnd[rc] > now {
						continue
					}
				}
				regionHead[r]++
				startTask(now, t)
				progress = true
			}
			// Reconfiguration controllers: each serves its queue strictly
			// in order, one reconfiguration at a time.
			for c, queue := range icapQueues {
				for icapHead[c] < len(queue) {
					idx := queue[icapHead[c]]
					rc := s.Reconfs[idx]
					if icapHead[c] > 0 {
						if prevEnd := res.ReconfEnd[queue[icapHead[c]-1]]; prevEnd < 0 || prevEnd > now {
							break
						}
					}
					// The region must have finished its previous occupant.
					if rc.InTask >= 0 {
						if res.End[rc.InTask] < 0 || res.End[rc.InTask] > now {
							break
						}
					}
					icapHead[c]++
					startReconf(now, idx)
					progress = true
				}
			}
		}
	}

	// Source tasks held only by a release floor need a wake-up: no
	// predecessor completion will ever re-run the dispatcher for them.
	for t := 0; t < n; t++ {
		if pendingPreds[t] == 0 && dataAt[t] > 0 {
			seq++
			cal.add(event{time: dataAt[t], seq: seq, kind: wake, id: t})
		}
	}

	dispatch()
	for !cal.empty() {
		now = cal.peekTime()
		for !cal.empty() && cal.peekTime() == now {
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
						seq++
						cal.add(event{time: dataAt[w], seq: seq, kind: wake, id: w})
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
