package repro

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/sched"
	"resched/internal/schedule"
	"resched/internal/solve"
)

// TestCancelledSearchesReturnPromptly is the cancellation-latency
// guarantee: Cancel on the request budget, arriving from another goroutine
// mid-search, makes every registered solver return — with the best-so-far
// schedule or a typed budget error — within 100ms. The solvers run a
// 100-task graph, the exact reference (which rejects it) an 11-task one.
// The budget is polled per node inside the floorplanner and the window
// searches and at every phase and iteration boundary, so the reaction time
// is bounded by one uninterrupted stretch of pipeline work, not by the
// full search.
func TestCancelledSearchesReturnPromptly(t *testing.T) {
	big := genGraph(t, benchgen.Config{Tasks: 100, Seed: 2024})
	small := genGraph(t, benchgen.Config{Tasks: solve.ExactMaxTasks, Seed: 2024})
	a := arch.ZedBoard()

	for _, name := range solve.List() {
		t.Run(name, func(t *testing.T) {
			sv, err := solve.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			g := big
			if name == "exact" {
				g = small
			}
			bud := budget.New(budget.Options{})
			cancelled := make(chan time.Time, 1)
			go func() {
				time.Sleep(10 * time.Millisecond)
				bud.Cancel()
				cancelled <- time.Now()
			}()
			// No iteration cap and no time budget: only the cancel stops
			// PA-R.
			res, err := sv.Solve(&solve.Request{Graph: g, Arch: a, Options: solve.Options{
				ModuleReuse: true, Seed: 1, Budget: bud,
			}})
			returned := time.Now()
			cancelAt := <-cancelled

			switch {
			case err == nil:
				// Finished before the cancel, or the cancel landed after an
				// incumbent existed: either way the schedule must be valid.
				if violations := schedule.Check(res.Schedule); len(violations) > 0 {
					t.Fatalf("returned schedule invalid: %v", violations[0])
				}
			case errors.Is(err, sched.ErrBudgetExhausted):
				// No incumbent yet: the typed budget error is the contract.
			default:
				t.Fatalf("unexpected error class: %v", err)
			}
			if lag := returned.Sub(cancelAt); lag > 100*time.Millisecond {
				t.Errorf("solver returned %v after Cancel, want within 100ms", lag)
			}
		})
	}
}

// TestBudgetedRunsStayDeterministic supplies a generous fake-clock budget
// and verifies the schedulers produce byte-identical schedules with and
// without it: threading a budget through the pipeline must be
// observationally free until it actually trips (companion guarantee to
// TestSchedulerDeterminism).
func TestBudgetedRunsStayDeterministic(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 50, Seed: 424242})
	a := arch.ZedBoard()
	generous := func() *budget.Budget {
		clk := faultinject.NewClock()
		return budget.New(budget.Options{
			Deadline: clk.Now().Add(time.Hour), MaxNodes: 1 << 40, Clock: clk.Now,
		})
	}

	plainPA, _, err := sched.Schedule(g, a, sched.Options{ModuleReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	budgetedPA, _, err := sched.Schedule(g, a, sched.Options{ModuleReuse: true, Budget: generous()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainPA, budgetedPA) {
		t.Error("PA: schedule differs under a generous budget")
	}

	par := sched.RandomOptions{MaxIterations: 20, Seed: 7, ModuleReuse: true}
	plainPAR, _, err := sched.RSchedule(g, a, par)
	if err != nil {
		t.Fatal(err)
	}
	par.Budget = generous()
	budgetedPAR, _, err := sched.RSchedule(g, a, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainPAR, budgetedPAR) {
		t.Error("PA-R: schedule differs under a generous budget")
	}
}
