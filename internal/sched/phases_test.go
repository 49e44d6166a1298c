package sched

import (
	"math"
	"math/rand"
	"testing"

	"resched/internal/arch"
	"resched/internal/resources"
	"resched/internal/taskgraph"
)

// newTestState builds a state over the given graph on the ZedBoard.
func newTestState(t *testing.T, g *taskgraph.Graph) *state {
	t.Helper()
	a := arch.ZedBoard()
	s := newState(g, a, a.MaxRes)
	s.selectImplementations()
	if err := s.retime(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMaxT(t *testing.T) {
	g := taskgraph.New("g")
	g.AddTask("a", sw("s", 100), hw("h", 40, 10, 0, 0))
	g.AddTask("b", sw("s", 70))
	s := newTestState(t, g)
	// Σ min times = 40 + 70.
	if got := s.maxT(); got != 110 {
		t.Errorf("maxT = %d, want 110", got)
	}
}

func TestImplCostFormula(t *testing.T) {
	// Hand-checked eq. (3) on the ZedBoard: weights from eq. (4),
	// denominator Σ weight·maxRes.
	a := arch.ZedBoard()
	g := taskgraph.New("g")
	g.AddTask("a", sw("s", 1000), hw("h", 500, 1000, 10, 20))
	s := newState(g, a, a.MaxRes)
	s.selectImplementations()

	w := resources.WeightsFor(a.MaxRes)
	im := g.Tasks[0].Impls[1]
	wantRes := w.Weighted(im.Res) / w.Weighted(a.MaxRes)
	wantTime := float64(im.Time) / float64(g.Tasks[0].MinTime()) // maxT = min time of the only task
	got := s.implCost(im, s.maxT())
	if math.Abs(got-(wantRes+wantTime)) > 1e-12 {
		t.Errorf("implCost = %v, want %v", got, wantRes+wantTime)
	}
}

func TestImplCostDegenerateDevice(t *testing.T) {
	// A zero-capacity device must not divide by zero.
	g := taskgraph.New("g")
	g.AddTask("a", sw("s", 10), hw("h", 5, 1, 0, 0))
	a := &arch.Architecture{Name: "zero", Processors: 1, RecFreq: 1, MaxRes: resources.Vector{}}
	s := newState(g, a, a.MaxRes)
	if c := s.implCost(g.Tasks[0].Impls[1], 0); math.IsNaN(c) || math.IsInf(c, 0) {
		t.Errorf("implCost degenerate = %v", c)
	}
}

func TestEfficiencyOrdering(t *testing.T) {
	// eff = time / weighted res: the small-slow implementation of a menu
	// must have the higher efficiency index.
	a := arch.ZedBoard()
	g := taskgraph.New("g")
	g.AddTask("a", sw("s", 10000),
		hw("fast", 100, 2000, 10, 20),
		hw("small", 260, 600, 3, 6))
	s := newState(g, a, a.MaxRes)
	fast, small := g.Tasks[0].Impls[1], g.Tasks[0].Impls[2]
	if !(s.efficiency(small) > s.efficiency(fast)) {
		t.Errorf("efficiency(small)=%v should exceed efficiency(fast)=%v",
			s.efficiency(small), s.efficiency(fast))
	}
	// Zero-resource implementations are infinitely efficient.
	free := taskgraph.Implementation{Name: "free", Kind: taskgraph.HW, Time: 5}
	if !math.IsInf(s.efficiency(free), 1) {
		t.Errorf("efficiency of zero-area impl = %v", s.efficiency(free))
	}
}

func TestSelectImplementationsPrefersFasterOf(t *testing.T) {
	g := taskgraph.New("g")
	// HW faster than SW → HW selected.
	g.AddTask("hwwin", sw("s", 1000), hw("h", 100, 200, 0, 0))
	// SW faster than best HW → SW selected.
	g.AddTask("swwin", sw("s", 50), hw("h", 100, 200, 0, 0))
	s := newTestState(t, g)
	if !s.isHW(0) {
		t.Error("task 0 should select hardware")
	}
	if s.isHW(1) {
		t.Error("task 1 should select software")
	}
}

func TestHWOrderCriticalFirst(t *testing.T) {
	// Diamond with one long branch: the short-branch task is non-critical
	// and must come after all critical tasks regardless of efficiency.
	g := taskgraph.New("g")
	g.AddTask("src", sw("s", 10000), hw("h", 100, 500, 0, 0))
	g.AddTask("long", sw("s", 10000), hw("h", 900, 500, 0, 0))
	g.AddTask("short", sw("s", 10000), hw("h", 100, 100, 0, 0)) // tiny → high eff
	g.AddTask("sink", sw("s", 10000), hw("h", 100, 500, 0, 0))
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 2, 3)
	s := newTestState(t, g)
	isCritical := make([]bool, g.N())
	for i := range isCritical {
		isCritical[i] = s.critical(i)
	}
	if isCritical[2] {
		t.Fatal("short branch unexpectedly critical")
	}
	order := s.hwOrder(isCritical, nil)
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	// Task 2 (the only non-critical one) must be last despite having the
	// highest efficiency index.
	if order[3] != 2 {
		t.Errorf("non-critical task not last: %v", order)
	}
}

func TestHWOrderRandomPermutesOnlyNonCritical(t *testing.T) {
	g := taskgraph.New("g")
	for i := 0; i < 6; i++ {
		g.AddTask("t", sw("s", 10000), hw("h", 100+int64(i), 100+10*i, 0, 0))
	}
	// Chain 0→1→2 critical; 3,4,5 isolated non-critical (shorter).
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	s := newTestState(t, g)
	isCritical := make([]bool, g.N())
	for i := range isCritical {
		isCritical[i] = s.critical(i)
	}
	det := s.hwOrder(isCritical, nil)
	rng := rand.New(rand.NewSource(9))
	rnd := s.hwOrder(isCritical, rng)
	// The critical prefix is identical; the suffix is a permutation of the
	// same non-critical set.
	nc := 0
	for _, c := range isCritical {
		if !c {
			nc++
		}
	}
	prefix := len(det) - nc
	for i := 0; i < prefix; i++ {
		if det[i] != rnd[i] {
			t.Fatalf("critical prefix differs at %d: %v vs %v", i, det, rnd)
		}
	}
	seen := map[int]bool{}
	for _, v := range rnd[prefix:] {
		seen[v] = true
	}
	for _, v := range det[prefix:] {
		if !seen[v] {
			t.Fatalf("random order lost task %d", v)
		}
	}
}

func TestInsertionStartCases(t *testing.T) {
	// Region with one occupant [100, 200); region reconf time derived from
	// its 500-slice requirement.
	a := arch.ZedBoard()
	g := taskgraph.New("g")
	g.AddTask("busy", sw("s", 100000), hw("h", 100, 500, 0, 0))
	g.AddTask("cand", sw("s", 100000), hw("h", 50, 400, 0, 0))
	s := newState(g, a, a.MaxRes)
	s.selectImplementations()
	if err := s.retime(); err != nil {
		t.Fatal(err)
	}
	r := s.newRegion(resources.Vec(500, 0, 0))
	// Pin the occupant at [100, 200) via a release.
	if err := s.delay(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.assignToRegion(0, r); err != nil {
		t.Fatal(err)
	}

	// Candidate window is wide (independent task): [0, makespan].
	// Without a gap requirement the earliest fit is before the occupant
	// when it fits, else right after.
	st := s.insertionStart(r, 1, 50, false, -1)
	if st != 0 {
		t.Errorf("insertion before occupant: start = %d, want 0", st)
	}
	// A 150-tick execution does not fit before the occupant (only 100
	// free); within the candidate's own window (lft = makespan = 200) no
	// position exists, so the insertion is rejected...
	st = s.insertionStart(r, 1, 150, false, -1)
	if st != -1 {
		t.Errorf("window-bounded insertion accepted at %d", st)
	}
	// ...but a wider horizon (the software-balancing case) places it right
	// after the occupant.
	st = s.insertionStart(r, 1, 150, false, 1000)
	if st != 200 {
		t.Errorf("horizon insertion after occupant: start = %d, want 200", st)
	}
	// With the reconfiguration gap the fit before the occupant must also
	// leave r.reconf before the occupant's start.
	st = s.insertionStart(r, 1, 50, true, -1)
	if st != -1 && st != 200+r.reconf {
		// Either rejected entirely or placed after with the gap.
		t.Errorf("gap insertion start = %d (reconf %d)", st, r.reconf)
	}
	// A horizon below the required end rejects the insertion.
	if got := s.insertionStart(r, 1, int64(1<<40), false, -1); got != -1 {
		t.Errorf("oversized insertion accepted at %d", got)
	}
}

func TestTotalReconfTime(t *testing.T) {
	a := arch.ZedBoard()
	g := taskgraph.New("g")
	for i := 0; i < 3; i++ {
		g.AddTask("t", sw("s", 100000), hw("h", 100, 500, 0, 0))
	}
	s := newState(g, a, a.MaxRes)
	s.selectImplementations()
	if err := s.retime(); err != nil {
		t.Fatal(err)
	}
	r := s.newRegion(resources.Vec(500, 0, 0))
	if got := s.totalReconfTime(); got != 0 {
		t.Errorf("empty region contributes %d", got)
	}
	r.tasks = []int{0}
	if got := s.totalReconfTime(); got != 0 {
		t.Errorf("single-task region contributes %d", got)
	}
	r.tasks = []int{0, 1, 2}
	if got := s.totalReconfTime(); got != 2*r.reconf {
		t.Errorf("totalReconfTime = %d, want %d", got, 2*r.reconf)
	}
}

func TestRegionTasksByStartOrdering(t *testing.T) {
	a := arch.ZedBoard()
	g := taskgraph.New("g")
	for i := 0; i < 3; i++ {
		g.AddTask("t", sw("s", 1000))
	}
	s := newState(g, a, a.MaxRes)
	s.selectImplementations()
	if err := s.retime(); err != nil {
		t.Fatal(err)
	}
	r := &regionState{tasks: []int{2, 0, 1}}
	// Give distinct starts via releases, set through delay so the
	// incremental retime sees them.
	for task, release := range []int64{50, 20, 90} {
		if err := s.delay(task, release); err != nil {
			t.Fatal(err)
		}
	}
	got := s.regionTasksByStart(r)
	want := []int{1, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFootprintRounding(t *testing.T) {
	a := arch.ZedBoard()
	g := taskgraph.New("g")
	g.AddTask("t", sw("s", 10))
	s := newState(g, a, a.MaxRes)
	// On the Zynq fabric a 450-slice request occupies at least 5 CLB cells.
	fp := s.footprint(resources.Vec(450, 0, 0))
	if fp[resources.CLB] < 500 {
		t.Errorf("footprint CLB = %d, want ≥ 500", fp[resources.CLB])
	}
	// Caching returns the identical value.
	if fp2 := s.footprint(resources.Vec(450, 0, 0)); fp2 != fp {
		t.Errorf("footprint cache mismatch: %v vs %v", fp2, fp)
	}
	// Without a fabric, rounding is per-kind cell granularity (cells of 1).
	b := &arch.Architecture{Name: "b", Processors: 1, RecFreq: 1, MaxRes: resources.Vec(100, 10, 10)}
	s2 := newState(g, b, b.MaxRes)
	if fp := s2.footprint(resources.Vec(7, 1, 2)); fp != resources.Vec(7, 1, 2) {
		t.Errorf("fabric-less footprint = %v", fp)
	}
}
