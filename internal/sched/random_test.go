package sched

import (
	"testing"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/budget"
	"resched/internal/schedule"
)

func TestRScheduleValid(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 30, Seed: 4})
	a := arch.ZedBoard()
	// Workers: 1 pins the single-worker search; TestParallelHistoryMonotone
	// asserts the same History contract at larger worker counts.
	sch, stats, err := RSchedule(g, a, RandomOptions{MaxIterations: 20, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if errs := schedule.Check(sch); len(errs) > 0 {
		t.Fatalf("invalid PA-R schedule: %v", errs)
	}
	if sch.Algorithm != "PA-R" {
		t.Errorf("algorithm = %q", sch.Algorithm)
	}
	if stats.Iterations != 20 {
		t.Errorf("iterations = %d, want 20", stats.Iterations)
	}
	if len(stats.History) == 0 {
		t.Error("no improvements recorded on a fresh search")
	}
	// History must be strictly improving.
	for i := 1; i < len(stats.History); i++ {
		if stats.History[i].Makespan >= stats.History[i-1].Makespan {
			t.Errorf("history not improving: %v", stats.History)
		}
	}
	// The final schedule equals the last history point.
	if last := stats.History[len(stats.History)-1]; last.Makespan != sch.Makespan {
		t.Errorf("returned makespan %d, history ends at %d", sch.Makespan, last.Makespan)
	}
}

func TestRScheduleReproducible(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 25, Seed: 2})
	a := arch.ZedBoard()
	s1, _, err := RSchedule(g, a, RandomOptions{MaxIterations: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := RSchedule(g, a, RandomOptions{MaxIterations: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Makespan != s2.Makespan {
		t.Errorf("same seed, different makespans: %d vs %d", s1.Makespan, s2.Makespan)
	}
}

func TestRScheduleAtLeastMatchesPAWithEnoughIterations(t *testing.T) {
	// PA-R explores random orderings; with a reasonable budget it should
	// find a schedule no worse than within a small factor of PA. (It is a
	// different ordering family, so exact dominance is not guaranteed;
	// across the suite PA-R wins on average — that is Fig. 5's claim.)
	a := arch.ZedBoard()
	worse := 0
	for seed := int64(0); seed < 4; seed++ {
		g := genGraph(t, benchgen.Config{Tasks: 40, Seed: 100 + seed})
		pa, _, err := Schedule(g, a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par, _, err := RSchedule(g, a, RandomOptions{MaxIterations: 60, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if par.Makespan > pa.Makespan {
			worse++
		}
	}
	if worse > 1 {
		t.Errorf("PA-R with 60 iterations lost to PA on %d/4 instances", worse)
	}
}

func TestRScheduleTimeBudget(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 20, Seed: 3})
	a := arch.ZedBoard()
	start := time.Now()
	sch, stats, err := RSchedule(g, a, RandomOptions{TimeBudget: 50 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sch == nil || stats.Iterations == 0 {
		t.Fatal("no iterations within the budget")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("budget wildly exceeded: %v", elapsed)
	}
}

func TestRScheduleNeedsBudget(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 10, Seed: 1})
	if _, _, err := RSchedule(g, arch.ZedBoard(), RandomOptions{}); err == nil {
		t.Error("missing budget accepted")
	}
}

func TestRScheduleNeedsFabric(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 10, Seed: 1})
	a := arch.ZedBoard()
	a.Fabric = nil
	if _, _, err := RSchedule(g, a, RandomOptions{MaxIterations: 3}); err == nil {
		t.Error("fabric-less architecture accepted")
	}
}

func TestRScheduleModuleReuse(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 30, Seed: 6})
	a := arch.ZedBoard()
	sch, _, err := RSchedule(g, a, RandomOptions{MaxIterations: 10, Seed: 2, ModuleReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sch.ModuleReuse {
		t.Error("module reuse flag lost")
	}
	if errs := schedule.Check(sch); len(errs) > 0 {
		t.Fatalf("invalid module-reuse schedule: %v", errs)
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
