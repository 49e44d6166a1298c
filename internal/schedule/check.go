package schedule

import (
	"fmt"
	"sort"

	"resched/internal/taskgraph"
)

// Check independently verifies every validity condition the problem
// statement imposes on a schedule (§III) and returns all violations found.
// It is deliberately written against the definition rather than any
// scheduler's internals so that it can arbitrate between implementations.
//
// Checked conditions:
//  1. structural sanity (valid impl indices, targets, non-negative slots);
//  2. task slots match the chosen implementation's execution time;
//  3. implementation kind matches the target kind (HW↔region, SW↔processor);
//  4. HW implementations fit their region's resources;
//  5. precedence: every edge (a,b) has end(a) + comm(a,b) ≤ start(b);
//  6. mutual exclusion on every processor and every region;
//  7. Σ region resources ≤ device capacity;
//  8. a reconfiguration of length reconf_s separates consecutive tasks in a
//     region (waived for the first task of a region, and — when module reuse
//     is enabled — for consecutive tasks sharing an implementation name);
//  9. reconfigurations never overlap each other (single reconfigurator) and
//     never overlap executions in their own region;
//
// 10. the recorded makespan equals the maximum task end time.
func Check(s *Schedule) []error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	n := s.Graph.N()
	if len(s.Tasks) != n {
		bad("schedule covers %d tasks, graph has %d", len(s.Tasks), n)
		return errs
	}

	// 1–4: per-task structure.
	for t, a := range s.Tasks {
		task := s.Graph.Tasks[t]
		if a.Impl < 0 || a.Impl >= len(task.Impls) {
			bad("task %d: impl index %d out of range", t, a.Impl)
			continue
		}
		im := task.Impls[a.Impl]
		if a.Start < 0 {
			bad("task %d: negative start %d", t, a.Start)
		}
		if a.End-a.Start != im.Time {
			bad("task %d: slot [%d,%d) does not match impl time %d", t, a.Start, a.End, im.Time)
		}
		switch a.Target.Kind {
		case OnProcessor:
			if im.Kind != taskgraph.SW {
				bad("task %d: HW impl %q on a processor", t, im.Name)
			}
			if a.Target.Index < 0 || a.Target.Index >= s.Arch.Processors {
				bad("task %d: processor %d out of range [0,%d)", t, a.Target.Index, s.Arch.Processors)
			}
		case OnRegion:
			if im.Kind != taskgraph.HW {
				bad("task %d: SW impl %q in a region", t, im.Name)
			}
			if a.Target.Index < 0 || a.Target.Index >= len(s.Regions) {
				bad("task %d: region %d out of range [0,%d)", t, a.Target.Index, len(s.Regions))
				continue
			}
			if !im.Res.Fits(s.Regions[a.Target.Index].Res) {
				bad("task %d: impl %q needs %v, region %d offers %v",
					t, im.Name, im.Res, a.Target.Index, s.Regions[a.Target.Index].Res)
			}
		default:
			bad("task %d: invalid target kind %d", t, a.Target.Kind)
		}
	}
	if len(errs) > 0 {
		// Structural breakage makes the remaining checks unreliable.
		return errs
	}

	// 5: precedence including per-edge communication time.
	edges, edgeComm := s.Graph.EdgesComm()
	for i, e := range edges {
		comm := edgeComm[i]
		if s.Tasks[e[0]].End+comm > s.Tasks[e[1]].Start {
			bad("edge %d→%d violated: end %d + comm %d > start %d",
				e[0], e[1], s.Tasks[e[0]].End, comm, s.Tasks[e[1]].Start)
		}
	}

	// 6: mutual exclusion per execution unit.
	for p := 0; p < s.Arch.Processors; p++ {
		checkDisjoint(s, s.ProcessorTasks(p), fmt.Sprintf("processor %d", p), &errs)
	}
	for r := range s.Regions {
		checkDisjoint(s, s.RegionTasks(r), fmt.Sprintf("region %d", r), &errs)
	}

	// 7: device capacity.
	if tot := s.TotalRegionResources(); !tot.Fits(s.Arch.MaxRes) {
		bad("regions need %v, device offers %v", tot, s.Arch.MaxRes)
	}

	// Region reconfiguration structure (8, part of 9).
	checkReconfs(s, &errs)

	// 9: reconfigurator capacity — at most ReconfiguratorCount
	// reconfigurations may be in flight at any instant (exactly one in the
	// paper's single-ICAP architecture).
	if cap := s.Arch.ReconfiguratorCount(); len(s.Reconfs) > 0 {
		type endpoint struct {
			t     int64
			delta int
		}
		pts := make([]endpoint, 0, 2*len(s.Reconfs))
		for _, rc := range s.Reconfs {
			pts = append(pts, endpoint{rc.Start, 1}, endpoint{rc.End, -1})
		}
		sort.Slice(pts, func(i, j int) bool {
			if pts[i].t != pts[j].t {
				return pts[i].t < pts[j].t
			}
			return pts[i].delta < pts[j].delta // ends before starts at ties
		})
		inFlight, worst := 0, 0
		var worstAt int64
		for _, p := range pts {
			inFlight += p.delta
			if inFlight > worst {
				worst = inFlight
				worstAt = p.t
			}
		}
		if worst > cap {
			bad("%d reconfigurations in flight at t=%d, architecture has %d controller(s)", worst, worstAt, cap)
		}
	}

	// 10: makespan.
	var m int64
	for _, a := range s.Tasks {
		if a.End > m {
			m = a.End
		}
	}
	if s.Makespan != m {
		bad("recorded makespan %d, computed %d", s.Makespan, m)
	}
	return errs
}

// Valid returns the first violation, or nil for a valid schedule.
func Valid(s *Schedule) error {
	if errs := Check(s); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// checkDisjoint verifies that the (start-sorted) tasks never overlap on one
// execution unit.
func checkDisjoint(s *Schedule, tasks []int, unit string, errs *[]error) {
	for i := 1; i < len(tasks); i++ {
		prev, cur := s.Tasks[tasks[i-1]], s.Tasks[tasks[i]]
		if prev.End > cur.Start {
			*errs = append(*errs, fmt.Errorf("%s: tasks %d [%d,%d) and %d [%d,%d) overlap",
				unit, tasks[i-1], prev.Start, prev.End, tasks[i], cur.Start, cur.End))
		}
	}
}

// checkReconfs validates condition 8 and the region side of condition 9.
func checkReconfs(s *Schedule, errs *[]error) {
	bad := func(format string, args ...any) {
		*errs = append(*errs, fmt.Errorf(format, args...))
	}
	// Index reconfigurations by (region, outTask).
	type key struct{ region, out int }
	byOut := make(map[key]*Reconfiguration)
	for i := range s.Reconfs {
		rc := &s.Reconfs[i]
		if rc.Region < 0 || rc.Region >= len(s.Regions) {
			bad("reconfiguration %d: region %d out of range", i, rc.Region)
			continue
		}
		reg := s.Regions[rc.Region]
		if got := rc.End - rc.Start; got != reg.ReconfTime {
			bad("reconfiguration %d: duration %d, region %d needs %d", i, got, rc.Region, reg.ReconfTime)
		}
		if rc.Start < 0 {
			bad("reconfiguration %d: negative start %d", i, rc.Start)
		}
		if rc.OutTask < 0 || rc.OutTask >= s.Graph.N() {
			bad("reconfiguration %d: outgoing task %d out of range", i, rc.OutTask)
			continue
		}
		out := s.Tasks[rc.OutTask]
		if out.Target.Kind != OnRegion || out.Target.Index != rc.Region {
			bad("reconfiguration %d: outgoing task %d not in region %d", i, rc.OutTask, rc.Region)
			continue
		}
		if rc.End > out.Start {
			bad("reconfiguration %d: ends at %d after outgoing task %d starts at %d", i, rc.End, rc.OutTask, out.Start)
		}
		if rc.InTask >= s.Graph.N() {
			bad("reconfiguration %d: ingoing task %d out of range", i, rc.InTask)
			continue
		}
		if rc.InTask >= 0 {
			in := s.Tasks[rc.InTask]
			if in.Target.Kind != OnRegion || in.Target.Index != rc.Region {
				bad("reconfiguration %d: ingoing task %d not in region %d", i, rc.InTask, rc.Region)
			} else if rc.Start < in.End {
				bad("reconfiguration %d: starts at %d before ingoing task %d ends at %d", i, rc.Start, rc.InTask, in.End)
			}
		}
		byOut[key{rc.Region, rc.OutTask}] = rc
	}
	// Every consecutive pair in a region needs its reconfiguration.
	for r := range s.Regions {
		tasks := s.RegionTasks(r)
		for i := 1; i < len(tasks); i++ {
			tin, tout := tasks[i-1], tasks[i]
			if s.ModuleReuse && s.Impl(tin).Name == s.Impl(tout).Name {
				continue // same bitstream already loaded
			}
			rc, ok := byOut[key{r, tout}]
			if !ok {
				bad("region %d: no reconfiguration between tasks %d and %d", r, tin, tout)
				continue
			}
			if rc.Start < s.Tasks[tin].End {
				bad("region %d: reconfiguration for task %d starts at %d before task %d ends at %d",
					r, tout, rc.Start, tin, s.Tasks[tin].End)
			}
		}
	}
	// Reconfigurations must not overlap executions inside their region.
	for i := range s.Reconfs {
		rc := &s.Reconfs[i]
		if rc.Region < 0 || rc.Region >= len(s.Regions) {
			continue
		}
		for _, t := range s.RegionTasks(rc.Region) {
			a := s.Tasks[t]
			if rc.Start < a.End && a.Start < rc.End {
				bad("region %d: reconfiguration [%d,%d) overlaps task %d [%d,%d)",
					rc.Region, rc.Start, rc.End, t, a.Start, a.End)
			}
		}
	}
}
