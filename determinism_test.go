package repro

import (
	"reflect"
	"testing"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/schedule"
	"resched/internal/solve"
)

// TestRegistryDeterminism is the behavioural counterpart of the reschedvet
// static checks, driven off the solver registry so every algorithm the repo
// ships — present and future — is covered without editing this test: each
// registered solver is run twice on the same graph and the two solve.Results
// must be deeply equal once wall-clock readings are zeroed. PA and the
// baselines are deterministic by construction and PA-R is seeded (with an
// iteration cap, not a time budget, so the workload itself is fixed); the
// IS-k comparisons and the convergence experiments of EXPERIMENTS.md are
// meaningless without this property.
func TestRegistryDeterminism(t *testing.T) {
	a := arch.ZedBoard()
	big := genGraph(t, benchgen.Config{Tasks: 50, Seed: 424242})

	for _, name := range solve.List() {
		t.Run(name, func(t *testing.T) {
			solver, err := solve.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			// The exhaustive reference gets a graph within its size
			// ceiling.
			g := big
			if name == "exact" {
				g = genGraph(t, benchgen.Config{Tasks: solve.ExactMaxTasks - 2, Seed: 424242})
			}
			run := func() *solve.Result {
				t.Helper()
				r, err := solver.Solve(&solve.Request{
					Graph: g,
					Arch:  a,
					// An iteration cap (not a wall-clock budget) and a
					// single worker keep the randomized search identical
					// across the two runs.
					Options: solve.Options{Seed: 7, MaxIterations: 40, Workers: 1},
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if errs := schedule.Check(r.Schedule); len(errs) > 0 {
					t.Fatalf("%s produced an invalid schedule: %v", name, errs[0])
				}
				scrubDurations(r)
				return r
			}
			r1, r2 := run(), run()
			if !reflect.DeepEqual(r1.Schedule, r2.Schedule) {
				t.Errorf("%s: schedules differ between runs", name)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("%s: solve.Results differ between runs (beyond the schedule)", name)
			}
		})
	}
}

// scrubDurations zeroes every wall-clock reading in a solve.Result so that
// reflect.DeepEqual compares only the deterministic payload.
func scrubDurations(r *solve.Result) {
	r.SchedulingTime, r.FloorplanTime = 0, 0
	if s := r.Search; s != nil {
		s.Elapsed = 0
		for i := range s.History {
			s.History[i].Elapsed = time.Duration(0)
		}
	}
}
