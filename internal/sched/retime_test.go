package sched

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/cpm"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// warmState builds a re-plan platform state for g: release floors on every
// third task, busy processors and controller, one idle warm region holding
// a stale module, and one warm region whose committed reconfiguration pins
// the first source task that has a hardware implementation.
func warmState(g *taskgraph.Graph, a *arch.Architecture) *schedule.PlatformState {
	ps := &schedule.PlatformState{
		ProcAvail:   []int64{400, 150},
		ReconfAvail: []int64{250},
		Release:     make([]int64, g.N()),
	}
	for t := range ps.Release {
		if t%3 == 1 {
			ps.Release[t] = int64(40 * t)
		}
	}
	for t, task := range g.Tasks {
		if len(g.Pred(t)) > 0 {
			continue
		}
		if hw := task.HWImpls(); len(hw) > 0 {
			im := task.Impls[hw[0]]
			ps.Release[t] = 0
			ps.Regions = append(ps.Regions,
				schedule.WarmRegion{Res: im.Res, Avail: 300, Loaded: im.Name, Pinned: t, PinnedImpl: hw[0]},
				schedule.WarmRegion{Res: im.Res, Avail: 120, Loaded: "stale", Pinned: -1})
			break
		}
	}
	return ps
}

// Every retime of PA and PA-R (one and two workers), cold and from warm
// platform states, must leave exactly the timing a full CPM pass computes on
// the state's combined graph, and the state's pred-aligned communication
// list must mirror the succ-aligned one.
func TestIncrementalRetimeMatchesFullPass(t *testing.T) {
	var checked, incremental atomic.Int64
	var failed atomic.Bool
	var lastFull sync.Map // *state → its full-pass count at its last retime
	retimeHook = func(s *state) {
		n := s.g.N()
		for v := 0; v < n; v++ {
			for j, w := range s.succ[v] {
				i := slices.Index(s.pred[w], v)
				if i < 0 || s.predComm[w][i] != s.succComm[v][j] {
					if failed.CompareAndSwap(false, true) {
						t.Errorf("edge %d→%d: pred-aligned comm does not mirror succComm", v, w)
					}
				}
			}
		}
		r, err := cpm.ComputeEdges(n, s.succ, s.pred, s.dur, s.release, -1, s.succComm)
		switch {
		case err != nil:
			if failed.CompareAndSwap(false, true) {
				t.Errorf("full pass fails where the retime succeeded: %v", err)
			}
		case r.Makespan != s.makespan || !slices.Equal(r.EST, s.est) || !slices.Equal(r.LFT, s.lft):
			if failed.CompareAndSwap(false, true) {
				t.Errorf("retime makespan %d est %v lft %v\nfull pass makespan %d est %v lft %v",
					s.makespan, s.est, s.lft, r.Makespan, r.EST, r.LFT)
			}
		}
		checked.Add(1)
		// Each retime runs one pass: it was incremental when the state's
		// full-pass count did not move since its previous retime.
		full, _ := s.cpmWS.Passes()
		if prev, ok := lastFull.Swap(s, full); ok && prev.(int64) == full {
			incremental.Add(1)
		}
	}
	t.Cleanup(func() { retimeHook = nil })

	suite, err := benchgen.Suite(2016)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.ZedBoard()
	for _, e := range suite {
		if e.Index != 0 || e.Group%30 != 10 {
			continue // groups 10, 40, 70 and 100
		}
		for _, warm := range []bool{false, true} {
			var ps *schedule.PlatformState
			if warm {
				ps = warmState(e.Graph, a)
			}
			name := fmt.Sprintf("tasks=%d/warm=%v", e.Group, warm)
			if _, _, err := Schedule(e.Graph, a, Options{Initial: ps, ModuleReuse: warm}); err != nil {
				t.Fatalf("%s PA: %v", name, err)
			}
			for _, w := range []int{1, 2} {
				if _, _, err := RSchedule(e.Graph, a, RandomOptions{MaxIterations: 6, Workers: w, Seed: 3, Initial: ps}); err != nil {
					t.Fatalf("%s PA-R W=%d: %v", name, w, err)
				}
			}
			if failed.Load() {
				t.Fatalf("%s: retime diverged from the full pass", name)
			}
		}
	}
	if checked.Load() == 0 || incremental.Load() == 0 {
		t.Fatalf("%d retimes checked, %d of them incremental", checked.Load(), incremental.Load())
	}
	t.Logf("%d retimes checked, %d of them incremental", checked.Load(), incremental.Load())
}
