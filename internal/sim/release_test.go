package sim

import (
	"reflect"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/resources"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// TestAssignChannelsEqualStartTieBreak pins the explicit tie-break: two
// reconfigurations with the same scheduled start must partition onto the
// controllers by reconfiguration index, independent of emission order.
func TestAssignChannelsEqualStartTieBreak(t *testing.T) {
	g := taskgraph.New("tie")
	a := arch.ZedBoard()
	a.Reconfigurators = 2
	s := schedule.New(g, a)
	s.AddRegion(resources.Vec(100, 0, 0))
	s.AddRegion(resources.Vec(100, 0, 0))
	rt := s.Regions[0].ReconfTime
	// Same start on both; emitted in DESCENDING index order on purpose.
	s.Reconfs = []schedule.Reconfiguration{
		{Region: 1, InTask: -1, OutTask: -1, Start: 10, End: 10 + rt},
		{Region: 0, InTask: -1, OutTask: -1, Start: 10, End: 10 + rt},
	}
	q := assignChannels(s)
	// Index 0 (emitted first) goes to controller 0, index 1 to controller 1.
	if len(q[0]) != 1 || q[0][0] != 0 || len(q[1]) != 1 || q[1][0] != 1 {
		t.Fatalf("equal-start partition = %v, want [[0] [1]]", q)
	}

	// Swapping the records (so emission order matches index order) must give
	// the same partition by record content: start ties resolve by index.
	s.Reconfs[0], s.Reconfs[1] = s.Reconfs[1], s.Reconfs[0]
	q2 := assignChannels(s)
	if !reflect.DeepEqual(q2, [][]int{{0}, {1}}) {
		t.Fatalf("after swap partition = %v, want [[0] [1]]", q2)
	}
}

// checkOnDemand verifies the issue-at-dispatch timeline against the warm
// platform: every floor holds, and no load starts before the data of the
// task it serves is ready.
func checkOnDemand(t *testing.T, s *schedule.Schedule, ps *schedule.PlatformState, r *Result) {
	t.Helper()
	if errs := schedule.CheckAgainst(ps, r.Apply(s)); len(errs) > 0 {
		t.Errorf("issue-at-dispatch timeline invalid: %v", errs[0])
	}
	var chFloor int64 // a single controller's warm floor bounds every load
	if len(ps.ReconfAvail) > 0 && s.Arch.ReconfiguratorCount() == 1 {
		chFloor = ps.ReconfAvail[0]
	}
	for i, rc := range s.Reconfs {
		var ready int64
		if rc.OutTask < len(ps.Release) {
			ready = ps.Release[rc.OutTask]
		}
		for _, p := range s.Graph.Pred(rc.OutTask) {
			if f := r.End[p] + s.Graph.EdgeComm(p, rc.OutTask); f > ready {
				ready = f
			}
		}
		if r.ReconfStart[i] < ready {
			t.Errorf("load %d starts at %d before task %d's data is ready at %d", i, r.ReconfStart[i], rc.OutTask, ready)
		}
		if r.ReconfStart[i] < chFloor {
			t.Errorf("load %d starts at %d before the controller frees at %d", i, r.ReconfStart[i], chFloor)
		}
	}
}

// TestExecuteFromReleaseFloors verifies warm floors hold in both dispatch
// rules: release floors in the replay executor (against the analytic
// oracle) and every floor of a warm platform under issue-at-dispatch.
func TestExecuteFromReleaseFloors(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 20, Seed: 9})
	s := mustPA(t, g)
	release := make([]int64, g.N())
	for v := range release {
		release[v] = int64(37 * (v%5 + 1))
	}
	// Warm regions busy until staggered floors. A region whose first task
	// needs no load is pinned to it: a frozen load already brought it in.
	regions := func(avail int64) []schedule.WarmRegion {
		out := make([]schedule.WarmRegion, len(s.Regions))
		for r := range out {
			out[r] = schedule.WarmRegion{Res: s.Regions[r].Res, Avail: avail * int64(r+1), Pinned: -1}
			if q := s.RegionTasks(r); len(q) > 0 {
				out[r].Pinned, out[r].PinnedImpl = q[0], s.Tasks[q[0]].Impl
			}
			for _, rc := range s.Reconfs {
				if rc.Region == r && rc.InTask < 0 {
					out[r].Pinned = -1
				}
			}
		}
		return out
	}
	for _, tc := range []struct {
		name string
		ps   *schedule.PlatformState
	}{
		{"release", &schedule.PlatformState{Release: release}},
		{"processors", &schedule.PlatformState{ProcAvail: []int64{500, 1200}}},
		{"regions", &schedule.PlatformState{Regions: regions(300)}},
		{"controller", &schedule.PlatformState{ReconfAvail: []int64{900}}},
		{"all", &schedule.PlatformState{Release: release, ProcAvail: []int64{80}, Regions: regions(150), ReconfAvail: []int64{400}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			od, err := ExecuteOnDemand(s, tc.ps)
			if err != nil {
				t.Fatal(err)
			}
			checkOnDemand(t, s, tc.ps, od)
			checkDynamic(t, s, od)
			if tc.name != "release" {
				return
			}
			ex, err := ExecuteFrom(s, release)
			if err != nil {
				t.Fatal(err)
			}
			an, err := ASAPFrom(s, release)
			if err != nil {
				t.Fatal(err)
			}
			for v := range release {
				if ex.Start[v] < release[v] {
					t.Errorf("Execute: task %d starts at %d before release %d", v, ex.Start[v], release[v])
				}
			}
			if !reflect.DeepEqual(ex.Start, an.Start) || ex.Makespan != an.Makespan {
				t.Errorf("ExecuteFrom and ASAPFrom disagree: makespans %d vs %d", ex.Makespan, an.Makespan)
			}
			checkDynamic(t, s, ex)
		})
	}

	// Zero floors are Execute: identical results.
	plain, err := Execute(s)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := ExecuteFrom(s, make([]int64, g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, zero) {
		t.Error("zero release floors changed the executed timeline")
	}
}

// TestOnDemandGrantsControllersDynamically is the reason issue-at-dispatch
// grants controllers at dispatch instead of replaying the plan's queues.
// The plan prefetches a's load on controller 0 before b's, but a consumes
// b's output: under the data clamp, controller 0's static queue would hold
// b's load behind a load that waits for b — a deadlock. Dynamic grants
// issue b's load first.
func TestOnDemandGrantsControllersDynamically(t *testing.T) {
	g := taskgraph.New("grant")
	hw := func(name string) taskgraph.Implementation {
		return taskgraph.Implementation{Name: name, Kind: taskgraph.HW, Time: 100, Res: resources.Vec(100, 0, 0)}
	}
	b := g.AddTask("b", hw("b")).ID
	x := g.AddTask("a", hw("a")).ID
	c := g.AddTask("c", hw("c")).ID
	if err := g.AddEdgeComm(b, x, 25); err != nil {
		t.Fatal(err)
	}
	a := arch.ZedBoard()
	a.Reconfigurators = 2
	s := schedule.New(g, a)
	for r := 0; r < 3; r++ {
		s.AddRegion(resources.Vec(100, 0, 0))
	}
	rt := s.Regions[0].ReconfTime
	on := func(r int, start int64) schedule.Assignment {
		return schedule.Assignment{Target: schedule.Target{Kind: schedule.OnRegion, Index: r}, Start: start, End: start + 100}
	}
	s.Tasks[b] = on(1, 2*rt)
	s.Tasks[x] = on(0, 2*rt+125)
	s.Tasks[c] = on(2, rt)
	s.Reconfs = []schedule.Reconfiguration{
		{Region: 0, InTask: -1, OutTask: x, Start: 0, End: rt},
		{Region: 2, InTask: -1, OutTask: c, Start: 0, End: rt},
		{Region: 1, InTask: -1, OutTask: b, Start: rt, End: 2 * rt},
	}
	s.ComputeMakespan()
	if err := schedule.Valid(s); err != nil {
		t.Fatal(err)
	}
	if q := assignChannels(s); !reflect.DeepEqual(q, [][]int{{0, 2}, {1}}) {
		t.Fatalf("plan queues = %v, want a's load ahead of b's on controller 0: [[0 2] [1]]", q)
	}

	ps := &schedule.PlatformState{ReconfAvail: []int64{0, 0}}
	r, err := ExecuteOnDemand(s, ps)
	if err != nil {
		t.Fatalf("issue-at-dispatch deadlocked: %v", err)
	}
	checkOnDemand(t, s, ps, r)
	// b's load takes controller 0 at once, a's waits for b's data.
	if r.ReconfStart[2] != 0 || r.ReconfStart[0] != rt+125 {
		t.Errorf("loads start at b=%d a=%d, want 0 and %d", r.ReconfStart[2], r.ReconfStart[0], rt+125)
	}
}
