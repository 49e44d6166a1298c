// The robust degradation ladder is composed in package solve from this
// package's rungs: PA, PA-R and SoftwareOnlyScheduleFrom. Its tests live
// beside those rungs, in an external test package so they can reach the
// ladder through the solve registry as every frontend does.
package sched_test

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/floorplan"
	"resched/internal/sched"
	"resched/internal/schedule"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

// robust runs the ladder on (g, a) through the solve registry.
func robust(t *testing.T, g *taskgraph.Graph, a *arch.Architecture, opts solve.Options) (*solve.Result, error) {
	t.Helper()
	s, err := solve.Get("robust")
	if err != nil {
		t.Fatal(err)
	}
	return s.Solve(&solve.Request{Graph: g, Arch: a, Options: opts})
}

func genGraph(tb testing.TB, cfg benchgen.Config) *taskgraph.Graph {
	tb.Helper()
	g, err := benchgen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// validOrFatal fails the test on the first checker violation.
func validOrFatal(t *testing.T, s *schedule.Schedule) {
	t.Helper()
	if errs := schedule.Check(s); len(errs) > 0 {
		t.Fatalf("invalid schedule: %v", errs[0])
	}
}

// reasons splits the ladder's failure chain into one entry per failed rung.
func reasons(l *solve.LadderStats) []string {
	if l.Reasons == "" {
		return nil
	}
	return strings.Split(l.Reasons, "; ")
}

func TestRobustFullRung(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 30, Seed: 11})
	res, err := robust(t, g, arch.ZedBoard(), solve.Options{ModuleReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	validOrFatal(t, res.Schedule)
	if r := res.Ladder.Rung; r != solve.Full && r != solve.Retried {
		t.Fatalf("clean run landed on rung %v, want full/retried", r)
	}
	if res.Ladder.Rung == solve.Full && res.Ladder.Degraded {
		t.Errorf("full rung recorded failure reasons: %q", res.Ladder.Reasons)
	}
	if res.Iterations == 0 {
		t.Error("PA rung fired but its attempts are missing")
	}
	if len(res.Schedule.Regions) > 0 && len(res.Placements) == 0 {
		t.Error("schedule uses regions but no placements were returned")
	}
}

// TestRobustSoftwareOnlyUnderTotalFloorplanFailure is the ladder's core
// guarantee: with every floorplan solve forced infeasible, the search rungs
// all fail, yet the ladder still returns a checker-valid schedule — the
// all-software rung — with a nil error and a reason chain explaining the
// degradation.
func TestRobustSoftwareOnlyUnderTotalFloorplanFailure(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 40, Seed: 5})
	faults := faultinject.New()
	faults.ForceFloorplanInfeasible(-1)

	res, err := robust(t, g, arch.ZedBoard(), solve.Options{
		ModuleReuse: true, MaxIterations: 8, Faults: faults,
	})
	if err != nil {
		t.Fatalf("ladder must not fail on a full-SW-coverage graph: %v", err)
	}
	validOrFatal(t, res.Schedule)
	if res.Ladder.Rung != solve.SoftwareOnly {
		t.Fatalf("rung = %v, want software-only", res.Ladder.Rung)
	}
	if len(res.Schedule.Regions) != 0 || len(res.Schedule.Reconfs) != 0 {
		t.Errorf("software-only schedule still uses %d regions / %d reconfigurations",
			len(res.Schedule.Regions), len(res.Schedule.Reconfs))
	}
	for tk, asg := range res.Schedule.Tasks {
		if asg.Target.Kind != schedule.OnProcessor {
			t.Fatalf("task %d not on a processor in the software-only rung", tk)
		}
	}
	if len(res.Placements) != 0 {
		t.Errorf("software-only rung returned %d placements", len(res.Placements))
	}
	// Both search rungs must have been tried and must blame the floorplan.
	chain := reasons(res.Ladder)
	if len(chain) < 2 {
		t.Fatalf("reason chain too short: %q", res.Ladder.Reasons)
	}
	for _, reason := range chain {
		if !strings.Contains(reason, floorplan.ErrInfeasible.Error()) {
			t.Errorf("reason %q does not blame the floorplan", reason)
		}
	}
	if faults.Fired(faultinject.FaultFloorplanInfeasible) == 0 {
		t.Error("armed floorplan fault never fired")
	}
}

// TestRobustNoSoftwareFallback hands the ladder the one graph it cannot
// rescue: a task with no software implementation (violating §III's
// assumption). Such graphs are rejected by taskgraph.Read, so it is built
// programmatically here.
func TestRobustNoSoftwareFallback(t *testing.T) {
	g := taskgraph.New("hw-only")
	g.AddTask("pre", taskgraph.Implementation{Name: "pre_sw", Kind: taskgraph.SW, Time: 10})
	g.AddTask("filter", taskgraph.Implementation{
		Name: "filter_hw", Kind: taskgraph.HW, Time: 5,
	})
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}

	res, err := robust(t, g, arch.ZedBoard(), solve.Options{})
	if !errors.Is(err, sched.ErrNoSoftwareFallback) {
		t.Fatalf("err = %v, want ErrNoSoftwareFallback", err)
	}
	if res != nil {
		t.Error("failed ladder still returned a result")
	}
}

// TestRobustCancelledBudget cancels the budget before the ladder starts:
// the search rungs are skipped with typed budget reasons and the
// software-only rung — which needs no search — still delivers.
func TestRobustCancelledBudget(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 25, Seed: 3})
	bud := budget.New(budget.Options{})
	bud.Cancel()

	res, err := robust(t, g, arch.ZedBoard(), solve.Options{ModuleReuse: true, Budget: bud})
	if err != nil {
		t.Fatalf("cancelled budget must degrade, not fail: %v", err)
	}
	validOrFatal(t, res.Schedule)
	if res.Ladder.Rung != solve.SoftwareOnly {
		t.Fatalf("rung = %v, want software-only", res.Ladder.Rung)
	}
	chain := reasons(res.Ladder)
	if len(chain) != 2 {
		t.Fatalf("reason chain = %q, want one entry per search rung", res.Ladder.Reasons)
	}
	for _, reason := range chain {
		if !strings.Contains(reason, budget.ErrCancelled.Error()) {
			t.Errorf("reason %q does not carry the cancellation cause", reason)
		}
	}
}

// TestRobustWarmState verifies the ladder threads the initial state down to
// whichever rung fires.
func TestRobustWarmState(t *testing.T) {
	g := taskgraph.New("robustwarm")
	g.AddTask("t0", taskgraph.Implementation{Name: "s0", Kind: taskgraph.SW, Time: 50})
	a := arch.ZedBoard()
	floors := make([]int64, a.Processors)
	for p := range floors {
		floors[p] = 90
	}
	ps := &schedule.PlatformState{ProcAvail: floors}
	res, err := robust(t, g, a, solve.Options{Initial: ps})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Tasks[0].Start < 90 {
		t.Errorf("robust result starts at %d, processor floor is 90", res.Schedule.Tasks[0].Start)
	}
	if errs := schedule.CheckAgainst(ps, res.Schedule); len(errs) > 0 {
		t.Fatalf("robust warm schedule invalid: %v", errs)
	}
}

// TestRobustRandomizedRungIgnoresHost pins that the ladder's PA-R rung runs
// at the request's Workers, not at the host's GOMAXPROCS: with PA forced to
// fail and Workers 1, the randomized rung returns the same schedule at
// GOMAXPROCS 1 and 4.
func TestRobustRandomizedRungIgnoresHost(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 30, Seed: 7})
	a := arch.ZedBoard()
	// Count the floorplan queries PA makes before it gives up, so exactly
	// those fail and the PA-R rung's queries get real answers.
	probe := faultinject.New()
	probe.ForceFloorplanInfeasible(-1)
	if _, _, err := sched.Schedule(g, a, sched.Options{Faults: probe}); err == nil {
		t.Fatal("PA succeeded with every floorplan query failing")
	}
	paQueries := probe.Fired(faultinject.FaultFloorplanInfeasible)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first *schedule.Schedule
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		faults := faultinject.New()
		faults.ForceFloorplanInfeasible(paQueries)
		res, err := robust(t, g, a, solve.Options{Workers: 1, MaxIterations: 16, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ladder.Rung != solve.Randomized {
			t.Fatalf("GOMAXPROCS %d: rung = %v, want randomized", procs, res.Ladder.Rung)
		}
		validOrFatal(t, res.Schedule)
		if first == nil {
			first = res.Schedule
		} else if !reflect.DeepEqual(res.Schedule, first) {
			t.Errorf("GOMAXPROCS %d: makespan %d, GOMAXPROCS 1 gave %d", procs, res.Schedule.Makespan, first.Makespan)
		}
	}
}
