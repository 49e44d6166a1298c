package sim

import (
	"fmt"

	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// ASAP computes the same executed timeline as Execute analytically: it
// builds the dependency network implied by the schedule's decisions
// (application edges with communication delays, per-processor and
// per-region orders, reconfiguration couplings, and the reconfigurator
// queue) and takes the longest path. Execute and ASAP must agree: it is
// the tests' differential oracle for the event-driven simulator.
func ASAP(s *schedule.Schedule) (*Result, error) {
	return ASAPFrom(s, nil)
}

// ASAPFrom is ASAP with per-task release floors, the analytic counterpart
// of ExecuteFrom: start[t] is at least release[t] before the longest-path
// pass. A nil or short slice leaves the unmapped tasks unconstrained.
func ASAPFrom(s *schedule.Schedule, release []int64) (*Result, error) {
	n := s.Graph.N()
	total := n + len(s.Reconfs)
	succ := make([][]int, total)
	weight := make(map[[2]int]int64, 4*total)
	addEdge := func(u, v int, w int64) {
		key := [2]int{u, v}
		if old, ok := weight[key]; ok {
			if w > old {
				weight[key] = w
			}
			return
		}
		weight[key] = w
		succ[u] = append(succ[u], v)
	}
	dur := make([]int64, total)
	for t := 0; t < n; t++ {
		dur[t] = s.Impl(t).Time
	}
	for i, rc := range s.Reconfs {
		dur[n+i] = s.Regions[rc.Region].ReconfTime
	}

	// Application edges with communication delays.
	edges, comm := s.Graph.EdgesComm()
	for i, e := range edges {
		addEdge(e[0], e[1], comm[i])
	}
	// Processor and region orders.
	for p := 0; p < s.Arch.Processors; p++ {
		q := s.ProcessorTasks(p)
		for i := 1; i < len(q); i++ {
			addEdge(q[i-1], q[i], 0)
		}
	}
	for r := range s.Regions {
		q := s.RegionTasks(r)
		for i := 1; i < len(q); i++ {
			addEdge(q[i-1], q[i], 0)
		}
	}
	// Reconfiguration couplings and the reconfigurator queue.
	for i, rc := range s.Reconfs {
		if rc.InTask >= 0 {
			addEdge(rc.InTask, n+i, 0)
		}
		if rc.OutTask >= 0 {
			addEdge(n+i, rc.OutTask, 0)
		}
	}
	for _, queue := range assignChannels(s) {
		for i := 1; i < len(queue); i++ {
			addEdge(n+queue[i-1], n+queue[i], 0)
		}
	}

	order, err := taskgraph.TopoOrderAdj(total, succ, nil)
	if err != nil {
		return nil, fmt.Errorf("sim: schedule orders are cyclic: %w", err)
	}
	start := make([]int64, total)
	for t := 0; t < n && t < len(release); t++ {
		start[t] = release[t]
	}
	for _, u := range order {
		for _, v := range succ[u] {
			if f := start[u] + dur[u] + weight[[2]int{u, v}]; f > start[v] {
				start[v] = f
			}
		}
	}

	res := &Result{
		Start:       start[:n:n],
		End:         make([]int64, n),
		ReconfStart: start[n:],
		ReconfEnd:   make([]int64, len(s.Reconfs)),
	}
	for t := 0; t < n; t++ {
		res.End[t] = res.Start[t] + dur[t]
		if res.End[t] > res.Makespan {
			res.Makespan = res.End[t]
		}
	}
	for i := range s.Reconfs {
		res.ReconfEnd[i] = res.ReconfStart[i] + dur[n+i]
	}
	return res, nil
}
