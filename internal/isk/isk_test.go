package isk

import (
	"os"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/obs"
	"resched/internal/resources"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

func sw(name string, t int64) taskgraph.Implementation {
	return taskgraph.Implementation{Name: name, Kind: taskgraph.SW, Time: t}
}

func hw(name string, t int64, clb int) taskgraph.Implementation {
	return taskgraph.Implementation{Name: name, Kind: taskgraph.HW, Time: t, Res: resources.Vec(clb, 0, 0)}
}

func mustRun(t *testing.T, g *taskgraph.Graph, a *arch.Architecture, opts Options) (*schedule.Schedule, *Stats) {
	t.Helper()
	sch, stats, err := Schedule(g, a, opts)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if errs := schedule.Check(sch); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatalf("invalid %s schedule", sch.Algorithm)
	}
	return sch, stats
}

func TestSingleTask(t *testing.T) {
	g := taskgraph.New("one")
	g.AddTask("t0", sw("s", 1000), hw("h", 100, 500))
	sch, stats := mustRun(t, g, arch.ZedBoard(), Options{K: 1})
	if sch.Makespan != 100 || sch.Algorithm != "IS-1" {
		t.Errorf("got %s", sch.Summary())
	}
	if stats.Windows != 1 {
		t.Errorf("windows = %d", stats.Windows)
	}
}

func TestGreedyPicksFastImplementation(t *testing.T) {
	// §IV: IS-1 greedily picks the locally fastest implementation even
	// when it hogs the device.
	a := &arch.Architecture{
		Name: "small", Processors: 1, RecFreq: 3200, Bits: resources.DefaultBits,
		MaxRes: resources.Vec(1000, 10, 10),
	}
	g := taskgraph.New("greedy")
	g.AddTask("t1", sw("t1_sw", 100000), hw("t1_big", 300, 900), hw("t1_small", 500, 450))
	sch, _ := mustRun(t, g, a, Options{K: 1, SkipFloorplan: true})
	if got := sch.Impl(0).Name; got != "t1_big" {
		t.Errorf("IS-1 picked %q, want the locally fastest t1_big", got)
	}
}

func TestChainSharesRegionWithReconfigs(t *testing.T) {
	// Unlike PA's window heuristics, IS-k time-shares a region for a chain
	// when no second region fits, paying reconfigurations.
	a := &arch.Architecture{
		Name: "small", Processors: 1, RecFreq: 3200, Bits: resources.DefaultBits,
		MaxRes: resources.Vec(700, 5, 5),
	}
	g := taskgraph.New("chain")
	for i := 0; i < 3; i++ {
		g.AddTask("t", sw("s", 50000), hw("h", 100, 600))
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	sch, _ := mustRun(t, g, a, Options{K: 1, SkipFloorplan: true})
	if sch.HWTaskCount() != 3 || len(sch.Regions) != 1 {
		t.Fatalf("want 3 HW tasks in one region: %s", sch.Summary())
	}
	if len(sch.Reconfs) != 2 {
		t.Fatalf("want 2 reconfigurations, got %d", len(sch.Reconfs))
	}
	rt := a.ReconfTime(resources.Vec(600, 0, 0))
	if want := 3*100 + 2*rt; sch.Makespan != want {
		t.Errorf("makespan = %d, want %d", sch.Makespan, want)
	}
}

func TestModuleReuseSkipsReconfig(t *testing.T) {
	a := &arch.Architecture{
		Name: "small", Processors: 1, RecFreq: 3200, Bits: resources.DefaultBits,
		MaxRes: resources.Vec(700, 5, 5),
	}
	g := taskgraph.New("reuse")
	shared := hw("shared", 100, 600)
	for i := 0; i < 3; i++ {
		g.AddTask("t", sw("s", 50000), shared)
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	sch, _ := mustRun(t, g, a, Options{K: 1, SkipFloorplan: true, ModuleReuse: true})
	if sch.HWTaskCount() != 3 || len(sch.Reconfs) != 0 {
		t.Fatalf("module reuse should drop all reconfigurations: %s", sch.Summary())
	}
	if sch.Makespan != 300 {
		t.Errorf("makespan = %d, want 300", sch.Makespan)
	}
}

func TestPrefetching(t *testing.T) {
	// Two region-sharing HW tasks separated by a long software task: the
	// reconfiguration must be prefetched during the software execution,
	// hiding its latency entirely.
	a := &arch.Architecture{
		Name: "small", Processors: 1, RecFreq: 3200, Bits: resources.DefaultBits,
		MaxRes: resources.Vec(700, 5, 5),
	}
	g := taskgraph.New("prefetch")
	g.AddTask("t0", sw("s0", 50000), hw("h0", 100, 600))
	g.AddTask("t1", sw("s1", 2000))
	g.AddTask("t2", sw("s2", 50000), hw("h2", 100, 600))
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	sch, _ := mustRun(t, g, a, Options{K: 1, SkipFloorplan: true, Prefetch: true})
	if sch.Makespan != 2200 {
		t.Errorf("makespan = %d, want 2200 (reconfiguration hidden)", sch.Makespan)
	}
	// Without prefetching the reconfiguration waits for t1 to finish and
	// lands on the critical path.
	noPf, _ := mustRun(t, g, a, Options{K: 1, SkipFloorplan: true})
	rt := a.ReconfTime(resources.Vec(600, 0, 0))
	if noPf.Makespan != 2200+rt {
		t.Errorf("no-prefetch makespan = %d, want %d", noPf.Makespan, 2200+rt)
	}
	if len(sch.Reconfs) != 1 {
		t.Fatalf("want 1 reconfiguration, got %d", len(sch.Reconfs))
	}
	rc := sch.Reconfs[0]
	if rc.Start < sch.Tasks[0].End || rc.End > sch.Tasks[2].Start {
		t.Errorf("reconfiguration [%d,%d) not prefetched between t0 and t2", rc.Start, rc.End)
	}
}

func TestIS5AtLeastAsGoodAsIS1(t *testing.T) {
	a := arch.ZedBoard()
	badCases := 0
	for seed := int64(0); seed < 5; seed++ {
		g := genGraph(t, benchgen.Config{Tasks: 25, Seed: 300 + seed})
		s1, _ := mustRun(t, g, a, Options{K: 1, SkipFloorplan: true})
		s5, _ := mustRun(t, g, a, Options{K: 5, SkipFloorplan: true})
		if s5.Makespan > s1.Makespan {
			badCases++
		}
	}
	// The window optimum sees k tasks at once; it should essentially never
	// lose to pure greedy (the iterative scheme is not globally monotone,
	// so allow a rare exception).
	if badCases > 1 {
		t.Errorf("IS-5 worse than IS-1 on %d/5 instances", badCases)
	}
}

func TestSuiteValidity(t *testing.T) {
	a := arch.ZedBoard()
	for _, n := range []int{10, 40, 80} {
		for idx := 0; idx < 2; idx++ {
			g := genGraph(t, benchgen.Config{Tasks: n, Seed: int64(500 + n + idx)})
			for _, k := range []int{1, 5} {
				sch, _ := mustRun(t, g, a, Options{K: k, SkipFloorplan: true, ModuleReuse: true})
				if sch.Makespan <= 0 {
					t.Fatalf("n=%d k=%d: empty schedule", n, k)
				}
			}
		}
	}
}

func TestFloorplannedRun(t *testing.T) {
	a := arch.ZedBoard()
	g := genGraph(t, benchgen.Config{Tasks: 20, Seed: 77})
	sch, stats := mustRun(t, g, a, Options{K: 1})
	if len(stats.Placements) != len(sch.Regions) {
		t.Fatalf("placements %d for %d regions", len(stats.Placements), len(sch.Regions))
	}
}

func TestDeterminism(t *testing.T) {
	a := arch.ZedBoard()
	g := genGraph(t, benchgen.Config{Tasks: 30, Seed: 12})
	s1, _ := mustRun(t, g, a, Options{K: 5, SkipFloorplan: true})
	s2, _ := mustRun(t, g, a, Options{K: 5, SkipFloorplan: true})
	if s1.Makespan != s2.Makespan {
		t.Error("IS-k not deterministic")
	}
}

func TestInvalidInputs(t *testing.T) {
	g := taskgraph.New("bad")
	g.AddTask("t")
	if _, _, err := Schedule(g, arch.ZedBoard(), Options{}); err == nil {
		t.Error("invalid graph accepted")
	}
	g2 := taskgraph.New("ok")
	g2.AddTask("t", sw("s", 10))
	noProc := arch.ZedBoard()
	noProc.Processors = 0
	if _, _, err := Schedule(g2, noProc, Options{SkipFloorplan: true}); err == nil {
		t.Error("SW task with zero processors accepted")
	}
}

// TestWindowsCappedOnTG60 pins how many IS-5 windows stop at the window cap
// on the committed 60-task example (the run `pasched -algo is5` makes: two
// attempts of 12 windows). A window that reaches the cap keeps its best
// plan unproven, so the count is the first read of how much of IS-5 is
// truncated search.
func TestWindowsCappedOnTG60(t *testing.T) {
	f, err := os.Open("../../examples/graphs/tg60.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := taskgraph.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	_, stats := mustRun(t, g, arch.ZedBoard(), Options{K: 5, Trace: tr})
	if stats.Windows != 24 || stats.Nodes != 783864 {
		t.Fatalf("ran %d windows, %d nodes; want the golden 24, 783864", stats.Windows, stats.Nodes)
	}
	if stats.CappedWindows != 11 {
		t.Errorf("CappedWindows = %d, want 11", stats.CappedWindows)
	}
	if got := tr.Snapshot().Counters["isk.windows_capped"]; got != 11 {
		t.Errorf("isk.windows_capped = %d, want 11", got)
	}
}
