package online

import "resched/internal/schedule"

// Reconfiguration prefetching (IS-k's idea, ref [8]): the solvers issue a
// region load as early as the controllers and the region allow, which hides
// load latency behind unrelated execution. This file measures how much that
// buys per epoch. Config.DisablePrefetch instead re-times each tail with
// sim.ExecuteOnDemand, the issue-at-dispatch rule: no load may be issued
// before the data of the task it serves is ready.

// stalls is the per-epoch prefetch accounting of one tail plan.
type stalls struct {
	issued, hits, misses int
	// stall is the exposed load latency: reconfiguration end past the
	// served task's data-ready instant, summed. baseline is a per-load
	// estimate on the same plan of what issuing at data-ready would
	// expose: max(duration, exposure) per load, not a simulated run.
	stall, baseline int64
}

// dataReady is the instant every input of tail task out is available: its
// release floor (arrival + frozen predecessors) joined with its tail
// predecessors' ends plus communication.
func dataReady(tail *schedule.Schedule, ps *schedule.PlatformState, out int) int64 {
	var dr int64
	if ps != nil && out < len(ps.Release) {
		dr = ps.Release[out]
	}
	for _, p := range tail.Graph.Pred(out) {
		if f := tail.Tasks[p].End + tail.Graph.EdgeComm(p, out); f > dr {
			dr = f
		}
	}
	return dr
}

// stallStats scores a tail's reconfigurations: a load issued before its
// task's data is ready is a prefetch; one that finishes by then hid the
// whole latency (hit), one that did not still exposed some (miss). The
// baseline charges each load max(duration, exposure) — what issuing at
// data-ready would expose — so baseline - stall is the latency prefetching
// hid.
func stallStats(tail *schedule.Schedule, ps *schedule.PlatformState) stalls {
	var st stalls
	for _, rc := range tail.Reconfs {
		if rc.OutTask < 0 {
			continue
		}
		dr := dataReady(tail, ps, rc.OutTask)
		dur := rc.End - rc.Start
		exposed := rc.End - dr
		if exposed < 0 {
			exposed = 0
		}
		st.stall += exposed
		if exposed > dur {
			st.baseline += exposed
		} else {
			st.baseline += dur
		}
		if rc.Start < dr {
			st.issued++
			if exposed == 0 {
				st.hits++
			} else {
				st.misses++
			}
		}
	}
	return st
}
