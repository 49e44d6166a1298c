package sched

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/budget"
	"resched/internal/obs"
	"resched/internal/schedule"
)

// TestParallelDeterminism pins the worker pool's output contract: for a
// fixed (Seed, Workers, MaxIterations) the schedule is a pure function of
// the options — two runs must be deeply equal regardless of goroutine
// interleaving. Run under -race (make verify does) this also exercises the
// reducer and the shared capacity-factor aggregate for data races.
func TestParallelDeterminism(t *testing.T) {
	a := arch.ZedBoard()
	for _, tasks := range []int{20, 50} {
		g := genGraph(t, benchgen.Config{Tasks: tasks, Seed: int64(424242 + tasks)})
		for _, workers := range []int{1, 2, 4, 7} {
			opts := RandomOptions{MaxIterations: 30, Seed: 11, Workers: workers}
			s1, st1, err := RSchedule(g, a, opts)
			if err != nil {
				t.Fatalf("tasks=%d workers=%d run1: %v", tasks, workers, err)
			}
			s2, st2, err := RSchedule(g, a, opts)
			if err != nil {
				t.Fatalf("tasks=%d workers=%d run2: %v", tasks, workers, err)
			}
			if errs := schedule.Check(s1); len(errs) > 0 {
				t.Fatalf("tasks=%d workers=%d: invalid schedule: %v", tasks, workers, errs[0])
			}
			if !reflect.DeepEqual(s1, s2) {
				t.Errorf("tasks=%d workers=%d: schedules differ between runs (makespan %d vs %d)",
					tasks, workers, s1.Makespan, s2.Makespan)
			}
			if st1.Iterations != 30 || st2.Iterations != 30 {
				t.Errorf("tasks=%d workers=%d: iterations %d/%d, want 30 (every global iteration exactly once)",
					tasks, workers, st1.Iterations, st2.Iterations)
			}
			if st1.FloorplanCalls != st2.FloorplanCalls || st1.Discarded != st2.Discarded {
				t.Errorf("tasks=%d workers=%d: counters differ between runs: %+v vs %+v",
					tasks, workers, st1, st2)
			}
		}
	}
}

// TestParallelHistoryMonotone pins the History contract at every worker
// count, cold and warm-started: History is the search's global-best anytime
// curve (Fig. 6), so Elapsed never decreases, Makespan strictly decreases
// and stays below the warm-start incumbent, and the last entry is the
// returned schedule's makespan whenever the search improved at all.
func TestParallelHistoryMonotone(t *testing.T) {
	a := arch.ZedBoard()
	// Graph 7 is one where warm-started searches still improve at W > 1.
	for _, graphSeed := range []int64{99, 7} {
		g := genGraph(t, benchgen.Config{Tasks: 40, Seed: graphSeed})
		// The deterministic first iteration alone gives a floorplanned
		// schedule the later random iterations can still beat.
		warm, _, err := RSchedule(g, a, RandomOptions{MaxIterations: 1, Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			for _, incumbent := range []*schedule.Schedule{nil, warm} {
				name := fmt.Sprintf("graph=%d/workers=%d/warm=%t", graphSeed, workers, incumbent != nil)
				t.Run(name, func(t *testing.T) {
					sch, stats, err := RSchedule(g, a, RandomOptions{
						MaxIterations: 40, Seed: 3, Workers: workers, InitialIncumbent: incumbent,
					})
					if err != nil {
						t.Fatal(err)
					}
					h := stats.History
					if incumbent == nil && len(h) == 0 {
						t.Fatal("no improvements recorded on a cold search")
					}
					for i, p := range h {
						if incumbent != nil && p.Makespan >= incumbent.Makespan {
							t.Errorf("history[%d] makespan %d does not beat the incumbent %d", i, p.Makespan, incumbent.Makespan)
						}
						if i == 0 {
							continue
						}
						if p.Elapsed < h[i-1].Elapsed {
							t.Errorf("history Elapsed not monotone at %d: %v < %v", i, p.Elapsed, h[i-1].Elapsed)
						}
						if p.Makespan >= h[i-1].Makespan {
							t.Errorf("history makespan not strictly decreasing at %d: %d after %d", i, p.Makespan, h[i-1].Makespan)
						}
					}
					if len(h) == 0 {
						if sch != incumbent {
							t.Error("no improvement, yet the warm-start incumbent was not returned")
						}
					} else if last := h[len(h)-1].Makespan; last != sch.Makespan {
						t.Errorf("history ends at %d, returned schedule has makespan %d", last, sch.Makespan)
					}
					if stats.CapacityFactor > 1.0 || stats.CapacityFactor < capFloor*capShrink {
						t.Errorf("capacity factor %v outside [%v, 1]", stats.CapacityFactor, capFloor*capShrink)
					}
				})
			}
		}
	}
}

// TestParallelTraceLanes records a W = 4 search and checks its span tree:
// every iteration sits directly under par.run and every floorplan query
// directly under the iteration that issued it, inside its time range — no
// worker's span nests under another worker's.
func TestParallelTraceLanes(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 40, Seed: 99})
	tr := obs.New()
	_, stats, err := RSchedule(g, arch.ZedBoard(), RandomOptions{MaxIterations: 40, Seed: 3, Workers: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	arg := func(sp obs.SpanInfo, key string) any {
		for _, a := range sp.Args {
			if a.Key == key {
				return a.Val
			}
		}
		return nil
	}
	var iterations, queries int
	for i, sp := range snap.Spans {
		if sp.Parent < 0 {
			if sp.Name != "par.run" {
				t.Errorf("span %d %s is a root; only par.run may be", i, sp.Name)
			}
			continue
		}
		parent := snap.Spans[sp.Parent]
		switch sp.Name {
		case "par.iteration":
			iterations++
			if parent.Name != "par.run" {
				t.Errorf("span %d: iteration %v nested under %s", i, arg(sp, "iteration"), parent.Name)
			}
		case "floorplan.solve":
			queries++
			if parent.Name != "par.iteration" {
				t.Errorf("span %d: floorplan query nested under %s", i, parent.Name)
				continue
			}
			if out := arg(parent, "outcome"); out != "improved" && out != "infeasible" {
				t.Errorf("span %d: floorplan query under iteration %v with outcome %v",
					i, arg(parent, "iteration"), out)
			}
		}
		if sp.Start < parent.Start || sp.End > parent.End {
			t.Errorf("span %d %s [%v,%v] escapes its parent %s [%v,%v]",
				i, sp.Name, sp.Start, sp.End, parent.Name, parent.Start, parent.End)
		}
	}
	if iterations != stats.Iterations || queries != stats.FloorplanCalls {
		t.Errorf("recorded %d iterations and %d floorplan queries, search reports %d and %d",
			iterations, queries, stats.Iterations, stats.FloorplanCalls)
	}
}

// TestParallelBudgetCancel proves a Cancel on the caller's budget stops all
// workers promptly: an unbounded search (no iteration cap, no time budget)
// must return shortly after the cancel instead of spinning.
func TestParallelBudgetCancel(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 40, Seed: 5})
	a := arch.ZedBoard()
	bud := budget.New(budget.Options{})
	done := make(chan error, 1)
	go func() {
		_, _, err := RSchedule(g, a, RandomOptions{Budget: bud, Seed: 1, Workers: 4})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	bud.Cancel()
	select {
	case err := <-done:
		// Workers that found an incumbent return it; otherwise the fallback
		// runs under the cancelled budget and surfaces a typed error.
		if err != nil && !errors.Is(err, budget.ErrExhausted) {
			t.Fatalf("unexpected error after cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("workers did not stop within 10s of Cancel")
	}
}

// TestParallelWorkerValidation rejects a negative worker count.
func TestParallelWorkerValidation(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 10, Seed: 1})
	if _, _, err := RSchedule(g, arch.ZedBoard(), RandomOptions{MaxIterations: 2, Workers: -3}); err == nil {
		t.Error("negative worker count accepted")
	}
}

// TestMixSeedStreams pins that worker seed streams are pairwise distinct for
// realistic pool sizes — equal streams would make workers duplicate work.
func TestMixSeedStreams(t *testing.T) {
	seen := map[int64]int{}
	for _, seed := range []int64{0, 1, -1, 7, 1 << 40} {
		for w := 0; w < 64; w++ {
			s := mixSeed(seed, w)
			if prev, dup := seen[s]; dup {
				t.Fatalf("mixSeed collision: seed=%d w=%d equals earlier stream %d", seed, w, prev)
			}
			seen[s] = w
		}
	}
}

// TestSharedCatalogConcurrentPAR runs PA-R searches concurrently on a
// fabric no other test uses, so they fill its placement catalog together:
// a W=4 search whose workers share classes, next to W=1 searches on their
// own goroutines. Each must equal the same search run alone afterwards on
// the filled catalog. Under -race this covers the catalog's locking.
func TestSharedCatalogConcurrentPAR(t *testing.T) {
	a, err := arch.ScaledZedBoard(1.13)
	if err != nil {
		t.Fatal(err)
	}
	g := genGraph(t, benchgen.Config{Tasks: 30, Seed: 4711})
	optsFor := func(workers int) RandomOptions {
		return RandomOptions{MaxIterations: 12, Seed: 5, Workers: workers}
	}
	workers := []int{4, 1, 1, 1}
	got := make([]*schedule.Schedule, len(workers))
	errs := make([]error, len(workers))
	done := make(chan int)
	for i, w := range workers {
		go func() {
			got[i], _, errs[i] = RSchedule(g, a, optsFor(w))
			done <- i
		}()
	}
	for range workers {
		<-done
	}
	for i, w := range workers {
		if errs[i] != nil {
			t.Fatalf("concurrent search %d (W=%d): %v", i, w, errs[i])
		}
		want, _, err := RSchedule(g, a, optsFor(w))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("concurrent search %d (W=%d): makespan %d, alone on the filled catalog %d",
				i, w, got[i].Makespan, want.Makespan)
		}
	}
}
