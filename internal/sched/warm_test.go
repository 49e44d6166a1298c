package sched

import (
	"reflect"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/resources"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// mustWarmSchedule runs PA with an initial platform state and validates the
// result against it.
func mustWarmSchedule(t *testing.T, g *taskgraph.Graph, a *arch.Architecture, ps *schedule.PlatformState, opts Options) *schedule.Schedule {
	t.Helper()
	opts.Initial = ps
	opts.SkipFloorplan = true
	sch, _, err := Schedule(g, a, opts)
	if err != nil {
		t.Fatalf("warm Schedule: %v", err)
	}
	if errs := schedule.CheckAgainst(ps, sch); len(errs) > 0 {
		var buf []byte
		for _, e := range errs {
			buf = append(buf, (e.Error() + "\n")...)
		}
		t.Fatalf("invalid warm schedule:\n%s", buf)
	}
	return sch
}

// TestEmptyInitialIdenticalPA pins the offline-unchanged contract: a nil and
// an explicitly empty initial state produce DeepEqual schedules.
func TestEmptyInitialIdenticalPA(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 40, Seed: 11})
	a := arch.ZedBoard()
	cold, _, err := Schedule(g, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	empty, _, err := Schedule(g, a, Options{Initial: &schedule.PlatformState{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, empty) {
		t.Errorf("empty initial state changed the schedule:\ncold:  %s\nempty: %s", cold.Summary(), empty.Summary())
	}
	// Zero-valued floors are an empty state too.
	zeros, _, err := Schedule(g, a, Options{Initial: &schedule.PlatformState{
		ProcAvail: make([]int64, a.Processors),
		Release:   make([]int64, g.N()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, zeros) {
		t.Error("all-zero initial state changed the schedule")
	}
}

// TestEmptyInitialIdenticalPAR extends the contract to the randomized
// search, sequential and parallel.
func TestEmptyInitialIdenticalPAR(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 30, Seed: 3})
	a := arch.ZedBoard()
	for _, workers := range []int{1, 3} {
		opts := RandomOptions{MaxIterations: 8, Seed: 5, Workers: workers}
		cold, _, err := RSchedule(g, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Initial = &schedule.PlatformState{}
		empty, _, err := RSchedule(g, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, empty) {
			t.Errorf("workers=%d: empty initial state changed the PA-R result", workers)
		}
	}
}

// TestWarmReleaseFloors verifies ps.Release delays tasks with no other
// constraint.
func TestWarmReleaseFloors(t *testing.T) {
	g := taskgraph.New("rel")
	g.AddTask("t0", sw("s0", 50))
	g.AddTask("t1", sw("s1", 50))
	ps := &schedule.PlatformState{Release: []int64{120, 0}}
	sch := mustWarmSchedule(t, g, arch.ZedBoard(), ps, Options{})
	if sch.Tasks[0].Start < 120 {
		t.Errorf("t0 starts at %d, release floor is 120", sch.Tasks[0].Start)
	}
	if sch.Tasks[1].Start != 0 {
		t.Errorf("t1 starts at %d, want 0 (unconstrained)", sch.Tasks[1].Start)
	}
}

// TestWarmProcessorFloors verifies busy processors delay first tail tasks.
func TestWarmProcessorFloors(t *testing.T) {
	g := taskgraph.New("proc")
	g.AddTask("t0", sw("s0", 50))
	a := arch.ZedBoard()
	floors := make([]int64, a.Processors)
	for p := range floors {
		floors[p] = 200
	}
	ps := &schedule.PlatformState{ProcAvail: floors}
	sch := mustWarmSchedule(t, g, a, ps, Options{})
	if sch.Tasks[0].Start < 200 {
		t.Errorf("t0 starts at %d on a processor busy until 200", sch.Tasks[0].Start)
	}
}

// TestWarmPinnedTask verifies a pinned task executes first in its warm
// region with the committed implementation, starting once the in-flight
// reconfiguration completes, with no new reconfiguration.
func TestWarmPinnedTask(t *testing.T) {
	g := taskgraph.New("pin")
	g.AddTask("t0", sw("s0", 1000), hw("h0", 100, 500, 0, 0))
	ps := &schedule.PlatformState{
		Regions: []schedule.WarmRegion{{
			Res: resources.Vec(500, 0, 0), Avail: 70, Loaded: "h0",
			Pinned: 0, PinnedImpl: 1,
		}},
	}
	sch := mustWarmSchedule(t, g, arch.ZedBoard(), ps, Options{})
	a0 := sch.Tasks[0]
	if a0.Target.Kind != schedule.OnRegion || a0.Target.Index != 0 {
		t.Fatalf("pinned task not in warm region 0: %+v", a0)
	}
	if a0.Impl != 1 {
		t.Errorf("pinned task uses impl %d, committed load was 1", a0.Impl)
	}
	if a0.Start != 70 {
		t.Errorf("pinned task starts at %d, want 70 (end of in-flight reconfiguration)", a0.Start)
	}
	if len(sch.Reconfs) != 0 {
		t.Errorf("pinned task needs no new reconfiguration, got %v", sch.Reconfs)
	}
}

// TestWarmPinForcesImpl verifies the pin overrides phase 1 even when the
// cost model would pick differently (here: software would be faster).
func TestWarmPinForcesImpl(t *testing.T) {
	g := taskgraph.New("pinforce")
	g.AddTask("t0", sw("s0", 10), hw("h0", 500, 500, 0, 0))
	ps := &schedule.PlatformState{
		Regions: []schedule.WarmRegion{{
			Res: resources.Vec(500, 0, 0), Avail: 0, Loaded: "h0",
			Pinned: 0, PinnedImpl: 1,
		}},
	}
	sch := mustWarmSchedule(t, g, arch.ZedBoard(), ps, Options{})
	if sch.Tasks[0].Impl != 1 || sch.Tasks[0].Target.Kind != schedule.OnRegion {
		t.Errorf("pin not enforced: %+v", sch.Tasks[0])
	}
}

// TestWarmBoundaryReconf drives a tail task into a warm region holding a
// stale module on a device too small for a second region: the plan must
// carry a boundary reconfiguration (InTask = -1) after the region's floor.
func TestWarmBoundaryReconf(t *testing.T) {
	g := taskgraph.New("boundary")
	// Slack comes from a slow software sibling chain; t1 is non-critical HW.
	g.AddTask("t0", sw("s0", 4000))
	g.AddTask("t1", sw("s1", 3000), hw("h1", 100, 500, 0, 0))
	a := arch.ZedBoard()
	a.MaxRes = resources.Vec(600, 0, 0) // fits the warm region, not a second one
	a.Fabric = nil
	ps := &schedule.PlatformState{
		Regions: []schedule.WarmRegion{{Res: resources.Vec(500, 0, 0), Avail: 40, Loaded: "other", Pinned: -1}},
	}
	sch := mustWarmSchedule(t, g, a, ps, Options{})
	if sch.Tasks[1].Target.Kind != schedule.OnRegion {
		t.Skipf("t1 fell back to software (%+v); boundary path not exercised", sch.Tasks[1])
	}
	if len(sch.Reconfs) != 1 || sch.Reconfs[0].InTask != -1 {
		t.Fatalf("expected one boundary reconfiguration, got %v", sch.Reconfs)
	}
	rc := sch.Reconfs[0]
	if rc.Start < 40 {
		t.Errorf("boundary reconfiguration starts at %d, region busy until 40", rc.Start)
	}
	if rc.OutTask != 1 || rc.End > sch.Tasks[1].Start {
		t.Errorf("boundary reconfiguration %+v inconsistent with task slot %+v", rc, sch.Tasks[1])
	}
}

// TestWarmControllerFloor verifies an in-flight committed reconfiguration
// occupies its controller: new reconfigurations wait for the floor.
func TestWarmControllerFloor(t *testing.T) {
	g := taskgraph.New("icap")
	g.AddTask("t0", sw("s0", 4000))
	g.AddTask("t1", sw("s1", 3000), hw("h1", 100, 500, 0, 0))
	a := arch.ZedBoard()
	a.MaxRes = resources.Vec(600, 0, 0)
	a.Fabric = nil
	ps := &schedule.PlatformState{
		Regions:     []schedule.WarmRegion{{Res: resources.Vec(500, 0, 0), Avail: 0, Loaded: "other", Pinned: -1}},
		ReconfAvail: []int64{500},
	}
	sch := mustWarmSchedule(t, g, a, ps, Options{})
	for _, rc := range sch.Reconfs {
		if rc.Start < 500 {
			t.Errorf("reconfiguration %+v starts before the controller floor 500", rc)
		}
	}
}

// TestSoftwareOnlyFromWarm verifies the bottom rung honours floors and pins.
func TestSoftwareOnlyFromWarm(t *testing.T) {
	g := taskgraph.New("swonly")
	g.AddTask("t0", sw("s0", 50), hw("h0", 100, 500, 0, 0))
	g.AddTask("t1", sw("s1", 50))
	mustEdge(t, g, 0, 1)
	a := arch.ZedBoard()
	ps := &schedule.PlatformState{
		Regions: []schedule.WarmRegion{{
			Res: resources.Vec(500, 0, 0), Avail: 30, Loaded: "h0",
			Pinned: 0, PinnedImpl: 1,
		}},
		ProcAvail: make([]int64, a.Processors),
		Release:   []int64{0, 10},
	}
	for p := range ps.ProcAvail {
		ps.ProcAvail[p] = 25
	}
	sch, err := SoftwareOnlyScheduleFrom(g, a, ps)
	if err != nil {
		t.Fatal(err)
	}
	if errs := schedule.CheckAgainst(ps, sch); len(errs) > 0 {
		t.Fatalf("invalid SW-only warm schedule: %v", errs)
	}
	if sch.Tasks[0].Target.Kind != schedule.OnRegion || sch.Tasks[0].Start != 30 {
		t.Errorf("pinned task: %+v, want region start 30", sch.Tasks[0])
	}
	if sch.Tasks[1].Target.Kind != schedule.OnProcessor || sch.Tasks[1].Start < 130 {
		t.Errorf("t1: %+v, want processor start ≥ 130 (after pinned end)", sch.Tasks[1])
	}

	// Identity: an empty state schedules exactly as no state does.
	cold1, err := SoftwareOnlyScheduleFrom(g, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := SoftwareOnlyScheduleFrom(g, a, &schedule.PlatformState{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold1, cold2) {
		t.Error("empty state changed the SW-only schedule")
	}
}
