// Package repro benchmarks regenerate the runtime content of the paper's
// evaluation (§VII): Table I's per-algorithm execution times across task
// counts, the per-figure pipelines, and ablations of the design choices
// catalogued in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// The figure *data* (makespans, improvements, convergence curves) is
// regenerated by cmd/experiments; these benchmarks track how long each
// algorithm takes, which is what Table I reports.
package repro

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/experiments"
	"resched/internal/floorplan"
	"resched/internal/isk"
	"resched/internal/obs"
	"resched/internal/resources"
	"resched/internal/sched"
	"resched/internal/sim"
)

// instance returns the idx-th suite graph of the given group, matching the
// instances cmd/experiments evaluates.
func instance(tb testing.TB, group, idx int) *benchgen.SuiteEntry {
	tb.Helper()
	suite, err := benchgen.Suite(2016)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range suite {
		if suite[i].Group == group && suite[i].Index == idx {
			return &suite[i]
		}
	}
	return nil
}

// benchGroups are the task counts benchmarked per algorithm; the full
// 10-group sweep of Table I is produced by cmd/experiments -exp table1.
var benchGroups = []int{10, 20, 40, 60, 100}

// BenchmarkTable1PA measures the deterministic scheduler including the
// floorplanning feasibility phase — the "PA total" column of Table I.
func BenchmarkTable1PA(b *testing.B) {
	a := arch.ZedBoard()
	for _, n := range benchGroups {
		e := instance(b, n, 0)
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sched.Schedule(e.Graph, a, sched.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1PASchedulingOnly isolates phases 1–7 — the "PA scheduling"
// column of Table I.
func BenchmarkTable1PASchedulingOnly(b *testing.B) {
	a := arch.ZedBoard()
	for _, n := range benchGroups {
		e := instance(b, n, 0)
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sched.Schedule(e.Graph, a, sched.Options{SkipFloorplan: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1IS1 measures the IS-1 baseline — the "IS-1" column.
func BenchmarkTable1IS1(b *testing.B) {
	a := arch.ZedBoard()
	for _, n := range benchGroups {
		e := instance(b, n, 0)
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := isk.Schedule(e.Graph, a, isk.Options{K: 1, ModuleReuse: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1IS5 measures the IS-5 baseline — the "IS-5" column.
func BenchmarkTable1IS5(b *testing.B) {
	a := arch.ZedBoard()
	for _, n := range benchGroups {
		e := instance(b, n, 0)
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := isk.Schedule(e.Graph, a, isk.Options{K: 5, ModuleReuse: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1PAR measures one PA-R search with a fixed iteration budget
// (the paper matches PA-R's wall-clock budget to IS-5; a fixed iteration
// count keeps the benchmark deterministic) — the "PA-R" column.
func BenchmarkTable1PAR(b *testing.B) {
	a := arch.ZedBoard()
	for _, n := range benchGroups {
		e := instance(b, n, 0)
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sched.RSchedule(e.Graph, a, sched.RandomOptions{MaxIterations: 25, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPAR measures the PA-R search at a fixed 40-iteration workload
// across worker-pool sizes on the 60-task instance — the worker-scaling
// series of the performance section in README.md. On a single-core machine
// the larger pools measure coordination overhead, not speedup.
func BenchmarkPAR(b *testing.B) {
	a := arch.ZedBoard()
	e := instance(b, 60, 0)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sched.RSchedule(e.Graph, a, sched.RandomOptions{MaxIterations: 40, Seed: 1, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPAParallelInstances drives independent deterministic PA runs from
// concurrent goroutines (b.RunParallel) — the many-instances-at-once shape
// of the experiment harness's worker pool, and a regression guard that the
// per-run scratch arenas stay goroutine-local.
func BenchmarkPAParallelInstances(b *testing.B) {
	a := arch.ZedBoard()
	e := instance(b, 20, 0)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := sched.Schedule(e.Graph, a, sched.Options{}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkFig2Pipeline runs the full four-algorithm comparison on one
// mid-size instance — the per-instance work behind each Figure 2 data
// point (and, via the derived improvements, Figures 3–5).
func BenchmarkFig2Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Run(experiments.Config{
			PerGroup:     1,
			Groups:       []int{30},
			MinParBudget: time.Millisecond,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Iteration measures one PA-R inner iteration (pipeline run
// with a random ordering) on the Figure 6 instances — the unit of work
// whose repetition produces the convergence curves.
func BenchmarkFig6Iteration(b *testing.B) {
	a := arch.ZedBoard()
	for _, n := range []int{20, 60, 100} {
		e := instance(b, n, 0)
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				if _, _, err := sched.Schedule(e.Graph, a, sched.Options{SkipFloorplan: true, Rand: rng}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOrdering contrasts the efficiency-index task ordering of
// §V-C with a random ordering (single shot, no floorplan) — the design
// choice that separates PA from PA-R's inner runs.
func BenchmarkAblationOrdering(b *testing.B) {
	a := arch.ZedBoard()
	e := instance(b, 60, 0)
	b.Run("efficiency", func(b *testing.B) {
		var mk int64
		for i := 0; i < b.N; i++ {
			s, _, err := sched.Schedule(e.Graph, a, sched.Options{SkipFloorplan: true})
			if err != nil {
				b.Fatal(err)
			}
			mk = s.Makespan
		}
		b.ReportMetric(float64(mk), "makespan")
	})
	b.Run("random", func(b *testing.B) {
		var mk int64
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			s, _, err := sched.Schedule(e.Graph, a, sched.Options{SkipFloorplan: true, Rand: rng})
			if err != nil {
				b.Fatal(err)
			}
			mk = s.Makespan
		}
		b.ReportMetric(float64(mk), "makespan")
	})
}

// BenchmarkAblationStrictWindows contrasts the default slot-insertion
// region compatibility with the literal window-disjointness test of §V-C.
func BenchmarkAblationStrictWindows(b *testing.B) {
	a := arch.ZedBoard()
	e := instance(b, 60, 0)
	for _, strict := range []bool{false, true} {
		name := "insertion"
		if strict {
			name = "strict"
		}
		b.Run(name, func(b *testing.B) {
			var mk int64
			for i := 0; i < b.N; i++ {
				s, _, err := sched.Schedule(e.Graph, a, sched.Options{SkipFloorplan: true, StrictWindows: strict})
				if err != nil {
					b.Fatal(err)
				}
				mk = s.Makespan
			}
			b.ReportMetric(float64(mk), "makespan")
		})
	}
}

// BenchmarkAblationSWBalance measures the software-task-balancing phase's
// contribution (§V-D).
func BenchmarkAblationSWBalance(b *testing.B) {
	a := arch.ZedBoard()
	e := instance(b, 60, 0)
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var mk int64
			for i := 0; i < b.N; i++ {
				s, _, err := sched.Schedule(e.Graph, a, sched.Options{SkipFloorplan: true, NoSWBalance: off})
				if err != nil {
					b.Fatal(err)
				}
				mk = s.Makespan
			}
			b.ReportMetric(float64(mk), "makespan")
		})
	}
}

// BenchmarkAblationPrefetch measures reconfiguration prefetching in the
// IS-k baseline (the capability the paper attributes to ref [8]).
func BenchmarkAblationPrefetch(b *testing.B) {
	a := arch.ZedBoard()
	e := instance(b, 40, 0)
	for _, pf := range []bool{false, true} {
		name := "off"
		if pf {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var mk int64
			for i := 0; i < b.N; i++ {
				s, _, err := isk.Schedule(e.Graph, a, isk.Options{K: 1, Prefetch: pf, SkipFloorplan: true})
				if err != nil {
					b.Fatal(err)
				}
				mk = s.Makespan
			}
			b.ReportMetric(float64(mk), "makespan")
		})
	}
}

// BenchmarkAblationModuleReuse measures module reuse (IS-k feature in the
// paper's evaluation; future-work extension for PA).
func BenchmarkAblationModuleReuse(b *testing.B) {
	a := arch.ZedBoard()
	e := instance(b, 40, 0)
	for _, algo := range []string{"IS1", "PA"} {
		for _, reuse := range []bool{false, true} {
			name := fmt.Sprintf("%s/reuse=%v", algo, reuse)
			b.Run(name, func(b *testing.B) {
				var mk int64
				for i := 0; i < b.N; i++ {
					switch algo {
					case "IS1":
						s, _, err := isk.Schedule(e.Graph, a, isk.Options{K: 1, ModuleReuse: reuse, SkipFloorplan: true})
						if err != nil {
							b.Fatal(err)
						}
						mk = s.Makespan
					case "PA":
						s, _, err := sched.Schedule(e.Graph, a, sched.Options{ModuleReuse: reuse, SkipFloorplan: true})
						if err != nil {
							b.Fatal(err)
						}
						mk = s.Makespan
					}
				}
				b.ReportMetric(float64(mk), "makespan")
			})
		}
	}
}

// BenchmarkFloorplanSolvers contrasts the backtracking and MILP placement
// engines on the same region set.
func BenchmarkFloorplanSolvers(b *testing.B) {
	a := arch.ZedBoard()
	regions := []resources.Vector{
		resources.Vec(800, 0, 20), resources.Vec(400, 10, 0), resources.Vec(1200, 0, 0),
		resources.Vec(2000, 20, 40), resources.Vec(600, 0, 0), resources.Vec(900, 8, 12),
	}
	for _, m := range []floorplan.Method{floorplan.Backtracking, floorplan.MILP} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := floorplan.Solve(a.Fabric, regions, floorplan.Options{Method: m})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Feasible {
					b.Fatal("expected feasible")
				}
			}
		})
	}
}

// BenchmarkFloorplanSolvePA measures the floorplanner alone on the region
// set PA's final schedule holds, per Table I group: the feasibility query
// phase 8 runs (default backtracking options), without the scheduling
// phases around it.
func BenchmarkFloorplanSolvePA(b *testing.B) {
	a := arch.ZedBoard()
	for _, n := range benchGroups {
		e := instance(b, n, 0)
		s, _, err := sched.Schedule(e.Graph, a, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		regions := make([]resources.Vector, len(s.Regions))
		for i, r := range s.Regions {
			regions[i] = r.Res
		}
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := floorplan.Solve(a.Fabric, regions, floorplan.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Feasible {
					b.Fatal("PA's final regions no longer floorplan")
				}
			}
		})
	}
}

// BenchmarkFloorplanSolveCapped measures a suite query the backtracking
// search cannot decide: the regions of PA's first attempt on the 20-task
// group's first graph, which end infeasible-unproven at the default
// 200 000-node cap. Such node-capped queries take most of PA's floorplan
// time over the suite.
func BenchmarkFloorplanSolveCapped(b *testing.B) {
	a := arch.ZedBoard()
	e := instance(b, 20, 0)
	s, _, err := sched.Schedule(e.Graph, a, sched.Options{SkipFloorplan: true})
	if err != nil {
		b.Fatal(err)
	}
	regions := make([]resources.Vector, len(s.Regions))
	for i, r := range s.Regions {
		regions[i] = r.Res
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := floorplan.Solve(a.Fabric, regions, floorplan.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Feasible || res.Proven {
			b.Fatalf("query decided in %d nodes; it must run to the node cap", res.Nodes)
		}
	}
}

// BenchmarkSuiteGeneration measures the §VII-A instance generator.
func BenchmarkSuiteGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite, err := benchgen.Suite(2016)
		if err != nil {
			b.Fatal(err)
		}
		if got := len(suite); got != 100 {
			b.Fatalf("suite size %d", got)
		}
	}
}

// BenchmarkAblationControllers measures the effect of additional
// reconfiguration controllers (the ref [8] generalisation) on PA.
func BenchmarkAblationControllers(b *testing.B) {
	e := instance(b, 60, 0)
	for _, controllers := range []int{1, 2, 4} {
		a := arch.ZedBoard()
		a.Reconfigurators = controllers
		b.Run(fmt.Sprintf("controllers=%d", controllers), func(b *testing.B) {
			var mk int64
			for i := 0; i < b.N; i++ {
				s, _, err := sched.Schedule(e.Graph, a, sched.Options{SkipFloorplan: true})
				if err != nil {
					b.Fatal(err)
				}
				mk = s.Makespan
			}
			b.ReportMetric(float64(mk), "makespan")
		})
	}
}

// BenchmarkSimulator measures the discrete-event executor on a PA schedule.
func BenchmarkSimulator(b *testing.B) {
	a := arch.ZedBoard()
	e := instance(b, 100, 0)
	s, _, err := sched.Schedule(e.Graph, a, sched.Options{SkipFloorplan: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentionSweep measures one point of the contention study.
func BenchmarkContentionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunContention(experiments.ContentionConfig{
			Tasks: 20, Instances: 1, Factors: []float64{1.0},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNilTrace is the nil-trace overhead guard, wired into the
// benchcmp regression gate: the disabled observability path (the default
// for every production solve without -trace/-metrics) must stay a handful
// of pointer comparisons with zero allocations. The loop body mirrors the
// instrument mix of one PA-R iteration: a detached span, a latency
// observation, a counter, and an Enabled-guarded flight-recorder event.
// Span/event args sit behind the Enabled guard because constructing them
// (interface boxing) is a caller-side cost the nil check cannot elide —
// internal/obs.TestNilTraceZeroAllocs pins the same contract per method.
func BenchmarkNilTrace(b *testing.B) {
	var tr *obs.Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartRoot("par.iteration")
		tr.Observe("par.iteration_us", float64(i))
		tr.Count("par.iterations", 1)
		if tr.Enabled() {
			tr.Event("par.improved", obs.Int("iteration", int64(i)))
			sp.End(obs.Str("outcome", "ok"))
		} else {
			sp.End()
		}
	}
}
