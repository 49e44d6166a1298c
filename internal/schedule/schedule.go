// Package schedule defines the output of the scheduling algorithms (§III of
// the paper): the set of reconfigurable regions, the mapping of every task
// to an implementation and an execution unit, the time slot of every task,
// and the set of reconfigurations with their time slots. It also provides an
// independent validity checker used by tests and by the randomized scheduler
// and a textual Gantt renderer.
package schedule

import (
	"fmt"
	"sort"

	"resched/internal/arch"
	"resched/internal/resources"
	"resched/internal/taskgraph"
)

// TargetKind says where a task executes.
type TargetKind int

const (
	// OnProcessor marks software execution on a processor core.
	OnProcessor TargetKind = iota
	// OnRegion marks hardware execution in a reconfigurable region.
	OnRegion
)

// String returns "processor" or "region".
func (k TargetKind) String() string {
	switch k {
	case OnProcessor:
		return "processor"
	case OnRegion:
		return "region"
	default:
		return fmt.Sprintf("TargetKind(%d)", int(k))
	}
}

// Target is the execution unit a task is mapped to.
type Target struct {
	Kind  TargetKind
	Index int // processor index or region ID
}

// Region is a reconfigurable region s ∈ S with its resource requirement
// res_{s,r} and derived reconfiguration time reconf_s (eq. (2)).
type Region struct {
	ID         int
	Res        resources.Vector
	ReconfTime int64
}

// Assignment is the placement of one task.
type Assignment struct {
	// Impl indexes the chosen implementation in the task's Impls.
	Impl int
	// Target is the execution unit.
	Target Target
	// Start and End delimit the execution slot; End-Start equals the
	// implementation's execution time.
	Start, End int64
}

// Reconfiguration is a reconfiguration task rt ∈ RT: it loads the partial
// bitstream of the outgoing task's implementation into a region between two
// subsequent executions in that region (§V-G).
type Reconfiguration struct {
	Region int
	// InTask is the preceding (ingoing) task in the region, or -1 when
	// this is the initial configuration of the region (regions are assumed
	// pre-loaded with their first module at time 0, so initial entries are
	// optional and only appear when a scheduler models them explicitly).
	InTask int
	// OutTask is the task whose bitstream is being loaded.
	OutTask    int
	Start, End int64
}

// Schedule is a complete solution to a problem instance.
type Schedule struct {
	Graph   *taskgraph.Graph
	Arch    *arch.Architecture
	Regions []Region
	// Tasks is indexed by task ID.
	Tasks   []Assignment
	Reconfs []Reconfiguration
	// Makespan is the overall application execution time (max task end).
	Makespan int64
	// ModuleReuse records whether the schedule relies on module-reuse
	// semantics: consecutive tasks in a region sharing an implementation
	// name need no reconfiguration between them.
	ModuleReuse bool
	// Algorithm names the scheduler that produced the solution.
	Algorithm string
}

// New allocates an empty schedule for the given instance.
func New(g *taskgraph.Graph, a *arch.Architecture) *Schedule {
	return &Schedule{Graph: g, Arch: a, Tasks: make([]Assignment, g.N())}
}

// AddRegion appends a region with the given requirements and returns its ID.
func (s *Schedule) AddRegion(res resources.Vector) int {
	id := len(s.Regions)
	s.Regions = append(s.Regions, Region{ID: id, Res: res, ReconfTime: s.Arch.ReconfTime(res)})
	return id
}

// ComputeMakespan recomputes and stores the makespan from task end times.
func (s *Schedule) ComputeMakespan() int64 {
	var m int64
	for _, a := range s.Tasks {
		if a.End > m {
			m = a.End
		}
	}
	s.Makespan = m
	return m
}

// RegionTasks returns the task IDs assigned to region r sorted by start
// time (ties broken by task ID).
func (s *Schedule) RegionTasks(r int) []int {
	var out []int
	for t, a := range s.Tasks {
		if a.Target.Kind == OnRegion && a.Target.Index == r {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := s.Tasks[out[i]], s.Tasks[out[j]]
		if ai.Start != aj.Start {
			return ai.Start < aj.Start
		}
		return out[i] < out[j]
	})
	return out
}

// ProcessorTasks returns the task IDs assigned to processor p sorted by
// start time.
func (s *Schedule) ProcessorTasks(p int) []int {
	var out []int
	for t, a := range s.Tasks {
		if a.Target.Kind == OnProcessor && a.Target.Index == p {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := s.Tasks[out[i]], s.Tasks[out[j]]
		if ai.Start != aj.Start {
			return ai.Start < aj.Start
		}
		return out[i] < out[j]
	})
	return out
}

// RegionRequirements lists the regions' resource requirements in region
// order: the query a floorplanner answers for the schedule.
func (s *Schedule) RegionRequirements() []resources.Vector {
	out := make([]resources.Vector, len(s.Regions))
	for i, r := range s.Regions {
		out[i] = r.Res
	}
	return out
}

// TotalRegionResources returns Σ_{s∈S} res_{s,r}.
func (s *Schedule) TotalRegionResources() resources.Vector {
	var v resources.Vector
	for _, r := range s.Regions {
		v = v.Add(r.Res)
	}
	return v
}

// TotalReconfTime returns the cumulative time spent reconfiguring.
func (s *Schedule) TotalReconfTime() int64 {
	var t int64
	for _, rc := range s.Reconfs {
		t += rc.End - rc.Start
	}
	return t
}

// HWTaskCount returns how many tasks execute in hardware.
func (s *Schedule) HWTaskCount() int {
	n := 0
	for _, a := range s.Tasks {
		if a.Target.Kind == OnRegion {
			n++
		}
	}
	return n
}

// Impl returns the implementation chosen for task t.
func (s *Schedule) Impl(t int) taskgraph.Implementation {
	return s.Graph.Tasks[t].Impls[s.Tasks[t].Impl]
}

// Clone returns a deep copy sharing the graph and architecture.
func (s *Schedule) Clone() *Schedule {
	c := *s
	c.Regions = append([]Region(nil), s.Regions...)
	c.Tasks = append([]Assignment(nil), s.Tasks...)
	c.Reconfs = append([]Reconfiguration(nil), s.Reconfs...)
	return &c
}
