package online

import (
	"fmt"

	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// buildGlobal merges the jobs into one global graph in plan order. Task IDs
// are job-local IDs shifted by the job's offset, so appending a job never
// renumbers earlier ones — the property that lets an epoch reuse the
// previous epoch's frozen set verbatim.
func buildGlobal(jobs []Job) (*taskgraph.Graph, []int, []int64, error) {
	g := taskgraph.New("online")
	var offsets []int
	var arrival []int64
	for _, job := range jobs {
		off := g.N()
		offsets = append(offsets, off)
		for _, t := range job.Graph.Tasks {
			g.AddTask(job.Name+"/"+t.Name, t.Impls...)
			arrival = append(arrival, job.Arrival)
		}
		edges, comm := job.Graph.EdgesComm()
		for i, ed := range edges {
			if err := g.AddEdgeComm(off+ed[0], off+ed[1], comm[i]); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return g, offsets, arrival, nil
}

// buildTail extracts the unfrozen subgraph: tail task i is the i-th
// unfrozen global task in ID order. Frozen-to-unfrozen data edges do not
// appear here — Freeze already folded them into release floors.
func buildTail(global *taskgraph.Graph, frozen []bool, T int64) (*taskgraph.Graph, []int, []int, error) {
	tailOf := make([]int, global.N())
	var tailToGlobal []int
	for gt := range tailOf {
		if frozen[gt] {
			tailOf[gt] = -1
			continue
		}
		tailOf[gt] = len(tailToGlobal)
		tailToGlobal = append(tailToGlobal, gt)
	}
	tg := taskgraph.New(fmt.Sprintf("%s@%d", global.Name, T))
	for _, gt := range tailToGlobal {
		tg.AddTask(global.Tasks[gt].Name, global.Tasks[gt].Impls...)
	}
	edges, comm := global.EdgesComm()
	for i, ed := range edges {
		u, v := tailOf[ed[0]], tailOf[ed[1]]
		if u < 0 || v < 0 {
			continue
		}
		if err := tg.AddEdgeComm(u, v, comm[i]); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := tg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	return tg, tailToGlobal, tailOf, nil
}

// warmState folds the arrival floors of the epoch's tasks into the
// horizon's warm platform state. All times are relative to the commit
// boundary T; a first (cold) epoch yields an Empty state, which every
// solver treats bit-identically to the historical t=0 solve.
func warmState(h *schedule.Horizon, tailToGlobal, tailOf []int, arrival []int64, T int64) (*schedule.PlatformState, error) {
	ps := &schedule.PlatformState{}
	if h != nil {
		ps = h.Platform.Clone()
	}
	// Freeze pins tasks by their global IDs; the tail plan (and CheckAgainst)
	// speak tail IDs. A pinned task is unstarted by definition, so it always
	// has one.
	for i := range ps.Regions {
		wr := &ps.Regions[i]
		if wr.Pinned < 0 {
			continue
		}
		if wr.Pinned >= len(tailOf) || tailOf[wr.Pinned] < 0 {
			return nil, fmt.Errorf("warm region %d pins frozen task %d", i, wr.Pinned)
		}
		wr.Pinned = tailOf[wr.Pinned]
	}
	rel := make([]int64, len(tailToGlobal))
	for i, gt := range tailToGlobal {
		var f int64
		if h != nil && gt < len(h.Platform.Release) {
			f = h.Platform.Release[gt]
		}
		if ar := arrival[gt] - T; ar > f {
			f = ar
		}
		rel[i] = f
	}
	ps.Release = rel
	return ps, nil
}

// mergeEpoch stitches a tail plan (times relative to commit T, task IDs in
// tail space, region i = warm region i) onto the frozen prefix of the
// previous plan, producing one absolute-time schedule over the global
// graph. The merged region set is the tail's: warm regions keep their
// identity by construction, frozen references are remapped through the
// horizon, and boundary reconfigurations (InTask < 0) reconnect to the last
// frozen task of their region.
func mergeEpoch(prev *schedule.Schedule, h *schedule.Horizon, global *taskgraph.Graph,
	tail *schedule.Schedule, tailOf, tailToGlobal []int, T int64) (*schedule.Schedule, error) {

	m := schedule.New(global, tail.Arch)
	m.ModuleReuse = tail.ModuleReuse
	m.Algorithm = "online(" + tail.Algorithm + ")"
	for _, r := range tail.Regions {
		m.AddRegion(r.Res)
	}

	var warmOf map[int]int // previous schedule's region ID -> warm (= merged) ID
	if h != nil {
		warmOf = make(map[int]int, len(h.RegionID))
		for w, old := range h.RegionID {
			warmOf[old] = w
		}
	}

	for gt := range m.Tasks {
		if ti := tailOf[gt]; ti >= 0 {
			a := tail.Tasks[ti]
			a.Start += T
			a.End += T
			m.Tasks[gt] = a
			continue
		}
		a := prev.Tasks[gt]
		if a.Target.Kind == schedule.OnRegion {
			w, ok := warmOf[a.Target.Index]
			if !ok {
				return nil, fmt.Errorf("frozen task %d sits in region %d the horizon does not carry", gt, a.Target.Index)
			}
			a.Target.Index = w
		}
		m.Tasks[gt] = a
	}

	if h != nil {
		for i, rc := range prev.Reconfs {
			if !h.FrozenReconf[i] {
				continue
			}
			w, ok := warmOf[rc.Region]
			if !ok {
				return nil, fmt.Errorf("frozen reconfiguration %d targets region %d the horizon does not carry", i, rc.Region)
			}
			rc.Region = w
			m.Reconfs = append(m.Reconfs, rc)
		}
	}
	for _, rc := range tail.Reconfs {
		rc.Start += T
		rc.End += T
		if rc.OutTask >= 0 {
			rc.OutTask = tailToGlobal[rc.OutTask]
		}
		if rc.InTask >= 0 {
			rc.InTask = tailToGlobal[rc.InTask]
		} else if h != nil && rc.Region < len(h.LastFrozenTask) {
			rc.InTask = h.LastFrozenTask[rc.Region]
		}
		m.Reconfs = append(m.Reconfs, rc)
	}
	m.ComputeMakespan()
	return m, nil
}
