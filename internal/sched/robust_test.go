package sched

import (
	"errors"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// validOrFatal fails the test on the first checker violation.
func validOrFatal(t *testing.T, s *schedule.Schedule) {
	t.Helper()
	if errs := schedule.Check(s); len(errs) > 0 {
		t.Fatalf("invalid schedule: %v", errs[0])
	}
}

func TestRobustFullRung(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 30, Seed: 11})
	a := arch.ZedBoard()
	res, err := Robust(g, a, RobustOptions{ModuleReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	validOrFatal(t, res.Schedule)
	if res.Rung != Full && res.Rung != Retried {
		t.Fatalf("clean run landed on rung %v, want full/retried", res.Rung)
	}
	if res.Rung == Full && len(res.Reasons) != 0 {
		t.Errorf("full rung recorded failure reasons: %v", res.Reasons)
	}
	if res.Stats == nil {
		t.Error("PA rung fired but Stats is nil")
	}
	if len(res.Schedule.Regions) > 0 && len(res.Placements) == 0 {
		t.Error("schedule uses regions but no placements were returned")
	}
}

// TestRobustSoftwareOnlyUnderTotalFloorplanFailure is the ladder's core
// guarantee: with every floorplan solve forced infeasible, the search rungs
// all fail, yet Robust still returns a checker-valid schedule — the
// all-software rung — with a nil error and a reason chain explaining the
// degradation.
func TestRobustSoftwareOnlyUnderTotalFloorplanFailure(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 40, Seed: 5})
	a := arch.ZedBoard()
	faults := faultinject.New()
	faults.ForceFloorplanInfeasible(-1)

	res, err := Robust(g, a, RobustOptions{
		ModuleReuse: true, RandomIterations: 8, Faults: faults,
	})
	if err != nil {
		t.Fatalf("ladder must not fail on a full-SW-coverage graph: %v", err)
	}
	validOrFatal(t, res.Schedule)
	if res.Rung != SoftwareOnly {
		t.Fatalf("rung = %v, want software-only", res.Rung)
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
	if len(res.Reasons) < 2 {
		t.Fatalf("reason chain too short: %v", res.Reasons)
	}
	for _, reason := range res.Reasons {
		if !errors.Is(reason, ErrFloorplanInfeasible) {
			t.Errorf("reason %v does not match ErrFloorplanInfeasible", reason)
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
	mustEdge(t, g, 0, 1)

	res, err := Robust(g, arch.ZedBoard(), RobustOptions{})
	if !errors.Is(err, ErrNoSoftwareFallback) {
		t.Fatalf("err = %v, want ErrNoSoftwareFallback", err)
	}
	if res.Schedule != nil {
		t.Error("failed ladder still returned a schedule")
	}
	if len(res.Reasons) == 0 {
		t.Error("failed ladder returned no reasons")
	}
}

// TestRobustCancelledBudget cancels the budget before the ladder starts:
// the search rungs are skipped with typed budget reasons and the
// software-only rung — which needs no search — still delivers.
func TestRobustCancelledBudget(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 25, Seed: 3})
	a := arch.ZedBoard()
	bud := budget.New(budget.Options{})
	bud.Cancel()

	res, err := Robust(g, a, RobustOptions{ModuleReuse: true, Budget: bud})
	if err != nil {
		t.Fatalf("cancelled budget must degrade, not fail: %v", err)
	}
	validOrFatal(t, res.Schedule)
	if res.Rung != SoftwareOnly {
		t.Fatalf("rung = %v, want software-only", res.Rung)
	}
	foundBudget := false
	for _, reason := range res.Reasons {
		if errors.Is(reason, ErrBudgetExhausted) {
			foundBudget = true
			if !errors.Is(reason, budget.ErrCancelled) {
				t.Errorf("budget reason %v does not carry the cancellation cause", reason)
			}
		}
	}
	if !foundBudget {
		t.Errorf("no reason matches ErrBudgetExhausted: %v", res.Reasons)
	}
}

// TestRScheduleBudgetReturnsIncumbent exhausts the shared node cap
// mid-search, after an incumbent exists, and verifies PA-R returns that
// incumbent rather than an error. The cap is calibrated from a reference
// run with the same seed: PA-R's node consumption is deterministic, so a
// cap one node above the reference consumption replays the reference
// search exactly — incumbent included — and trips on the very next charge.
// That consumption is deterministic only on the sequential path: parallel
// workers charge the shared budget in scheduler order, so Workers is pinned
// to 1 instead of the GOMAXPROCS default.
func TestRScheduleBudgetReturnsIncumbent(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 40, Seed: 8})
	a := arch.ZedBoard()
	opts := RandomOptions{MaxIterations: 3, Seed: 4, ModuleReuse: true, Workers: 1}

	ref := budget.New(budget.Options{})
	refOpts := opts
	refOpts.Budget = ref
	refSch, refStats, err := RSchedule(g, a, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(refStats.History) == 0 {
		t.Fatal("reference run accepted no improvement; pick another seed")
	}

	bud := budget.New(budget.Options{MaxNodes: ref.Nodes() + 1})
	capped := opts
	capped.MaxIterations = 60 // backstop; the node cap is the intended stop
	capped.Budget = bud
	sch, stats, err := RSchedule(g, a, capped)
	if err != nil {
		t.Fatalf("node-cap expiry with an incumbent must not fail: %v", err)
	}
	validOrFatal(t, sch)
	if sch.Algorithm != "PA-R" {
		t.Errorf("algorithm = %q, want PA-R", sch.Algorithm)
	}
	if len(stats.History) == 0 {
		t.Fatal("capped run accepted no improvement")
	}
	if sch.Makespan != refSch.Makespan {
		t.Errorf("incumbent makespan %d, reference found %d", sch.Makespan, refSch.Makespan)
	}
}
