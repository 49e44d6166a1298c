package solve

import (
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/isk"
	"resched/internal/resources"
	"resched/internal/sched"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

func sw(name string, t int64) taskgraph.Implementation {
	return taskgraph.Implementation{Name: name, Kind: taskgraph.SW, Time: t}
}

func hw(name string, t int64, clb int) taskgraph.Implementation {
	return taskgraph.Implementation{Name: name, Kind: taskgraph.HW, Time: t, Res: resources.Vec(clb, 0, 0)}
}

// mustEdge adds a dependency or fails the test.
func mustEdge(tb testing.TB, g *taskgraph.Graph, from, to int) {
	tb.Helper()
	if err := g.AddEdge(from, to); err != nil {
		tb.Fatal(err)
	}
}

// solveExact runs the exact reference, bypassing the registry decorator.
func solveExact(t *testing.T, g *taskgraph.Graph, a *arch.Architecture, opts Options) *Result {
	t.Helper()
	res, err := exactSolver{}.Solve(&Request{Graph: g, Arch: a, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExactRejectsLargeInstances(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 20, Seed: 1})
	if _, err := (exactSolver{}).Solve(&Request{Graph: g, Arch: arch.ZedBoard()}); err == nil {
		t.Fatal("20-task instance accepted")
	}
}

func TestExactHandComputedOptimum(t *testing.T) {
	// Two independent tasks, device fits both regions: the optimum runs
	// them in parallel in hardware.
	a := &arch.Architecture{
		Name: "small", Processors: 1, RecFreq: 3200, Bits: resources.DefaultBits,
		MaxRes: resources.Vec(1200, 0, 0),
	}
	g := taskgraph.New("g")
	g.AddTask("a", sw("a_sw", 900), hw("a_hw", 100, 600))
	g.AddTask("b", sw("b_sw", 900), hw("b_hw", 150, 600))
	res := solveExact(t, g, a, Options{})
	if !res.Exact.Proven {
		t.Fatal("two-task search did not complete")
	}
	if res.Makespan != 150 {
		t.Errorf("optimum = %d, want 150", res.Makespan)
	}
	if errs := schedule.Check(res.Schedule); len(errs) > 0 {
		t.Fatalf("invalid: %v", errs[0])
	}
}

func TestExactChainOptimumWithSharing(t *testing.T) {
	// A 3-chain on a one-region device: the non-delay optimum time-shares
	// the region, paying two reconfigurations (much cheaper than SW).
	a := &arch.Architecture{
		Name: "one-region", Processors: 1, RecFreq: 3200, Bits: resources.DefaultBits,
		MaxRes: resources.Vec(700, 0, 0),
	}
	g := taskgraph.New("g")
	for i := 0; i < 3; i++ {
		g.AddTask("t", sw("t_sw", 50000), hw("t_hw", 100, 600))
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	res := solveExact(t, g, a, Options{})
	if !res.Exact.Proven {
		t.Fatal("search did not complete")
	}
	rt := a.ReconfTime(resources.Vec(600, 0, 0))
	if want := 3*100 + 2*rt; res.Makespan != want {
		t.Errorf("optimum = %d, want %d", res.Makespan, want)
	}
}

// TestHeuristicsNeverBeatExact is the optimality-gap property: on small
// random instances the exhaustive reference must lower-bound (within the
// non-delay class it searches) every heuristic's makespan.
func TestHeuristicsNeverBeatExact(t *testing.T) {
	a := arch.ZedBoard()
	for seed := int64(0); seed < 6; seed++ {
		g := genGraph(t, benchgen.Config{Tasks: 7, Seed: 2000 + seed})
		res := solveExact(t, g, a, Options{ModuleReuse: true})
		ex, proven := res.Schedule, res.Exact.Proven
		if !proven {
			t.Logf("seed %d: node budget hit (%d nodes); comparisons still valid as bounds", seed, res.Exact.Nodes)
		}
		if errs := schedule.Check(ex); len(errs) > 0 {
			t.Fatalf("seed %d: exact schedule invalid: %v", seed, errs[0])
		}

		pa, _, err := sched.Schedule(g, a, sched.Options{SkipFloorplan: true})
		if err != nil {
			t.Fatal(err)
		}
		i1, _, err := isk.Schedule(g, a, isk.Options{K: 1, ModuleReuse: true, SkipFloorplan: true})
		if err != nil {
			t.Fatal(err)
		}
		// IS-k and the exact search share the non-delay class and module
		// reuse settings, so IS-1 can never beat the proven optimum.
		if proven && i1.Makespan < ex.Makespan {
			t.Errorf("seed %d: IS-1 (%d) beat the exhaustive search (%d)", seed, i1.Makespan, ex.Makespan)
		}
		// PA schedules with explicit delays and without module reuse, so it
		// can only match or exceed the reference.
		if proven && pa.Makespan < ex.Makespan {
			t.Errorf("seed %d: PA (%d) beat the exhaustive search (%d)", seed, pa.Makespan, ex.Makespan)
		}
	}
}
