package isk

import (
	"math/rand"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/budget"
	"resched/internal/resources"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

func testTimeline(t *testing.T, prefetch bool) *timeline {
	t.Helper()
	g := taskgraph.New("g")
	g.AddTask("a", sw("a_sw", 100), hw("a_hw", 50, 500))
	g.AddTask("b", sw("b_sw", 100), hw("b_hw", 50, 500))
	mustEdge(t, g, 0, 1)
	a := arch.ZedBoard()
	return newTimeline(g, a, a.MaxRes, false, prefetch)
}

func TestSlotOperations(t *testing.T) {
	st := testTimeline(t, true)
	// Empty reconfigurator: first fit at the lower bound.
	if _, got := st.slotFor(10, 5); got != 10 {
		t.Errorf("slotFor on empty = %d", got)
	}
	i1 := st.insertSlot(0, 10, 5) // [10,15)
	i2 := st.insertSlot(0, 20, 5) // [20,25)
	if i1 != 0 || i2 != 1 {
		t.Errorf("insertion indices %d, %d", i1, i2)
	}
	// Gap between the slots fits exactly 5.
	if _, got := st.slotFor(10, 5); got != 15 {
		t.Errorf("slotFor gap = %d, want 15", got)
	}
	// Too long for the gap: lands after the second slot.
	if _, got := st.slotFor(10, 6); got != 25 {
		t.Errorf("slotFor long = %d, want 25", got)
	}
	// Insert into the gap, then remove it again.
	i3 := st.insertSlot(0, 15, 5)
	if i3 != 1 {
		t.Errorf("gap insertion index = %d", i3)
	}
	st.removeSlot(0, i3)
	if len(st.slots[0]) != 2 || st.slots[0][0].start != 10 || st.slots[0][1].start != 20 {
		t.Errorf("removeSlot broke the timeline: %+v", st.slots[0])
	}
}

// slotOn's binary search lands where a scan from the first slot would:
// slots are inserted where slotOn puts them, empty ones included, and after
// every insertion their ends stay sorted and slotOn agrees with the linear
// scan for every lower bound and length.
func TestSlotOnMatchesLinearScan(t *testing.T) {
	linear := func(tl []interval, lo, dur int64) int64 {
		s := lo
		for _, iv := range tl {
			if iv.end <= s {
				continue
			}
			if iv.start >= s+dur {
				break
			}
			s = iv.end
		}
		return s
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		st := testTimeline(t, true)
		for k := 0; k < 40; k++ {
			lo, dur := rng.Int63n(400), rng.Int63n(4)*rng.Int63n(30)
			s := st.slotOn(0, lo, dur)
			if want := linear(st.slots[0], lo, dur); s != want {
				t.Fatalf("trial %d: slotOn(%d, %d) = %d, linear scan %d on %v", trial, lo, dur, s, want, st.slots[0])
			}
			st.insertSlot(0, s, dur)
			tl := st.slots[0]
			for i := 1; i < len(tl); i++ {
				if tl[i].end < tl[i-1].end || tl[i].start < tl[i-1].start {
					t.Fatalf("trial %d: slots out of order: %v", trial, tl)
				}
			}
			for q := int64(0); q < 450; q += 7 {
				if got, want := st.slotOn(0, q, 5), linear(tl, q, 5); got != want {
					t.Fatalf("trial %d: slotOn(%d, 5) = %d, linear scan %d on %v", trial, q, got, want, tl)
				}
			}
		}
	}
}

func TestSlotForMultiController(t *testing.T) {
	g := taskgraph.New("g")
	g.AddTask("a", sw("a_sw", 100))
	a := arch.ZedBoard()
	a.Reconfigurators = 2
	st := newTimeline(g, a, a.MaxRes, false, true)
	if len(st.slots) != 2 {
		t.Fatalf("expected 2 controller timelines, got %d", len(st.slots))
	}
	// Fill controller 0 at [0, 100): the second request lands on
	// controller 1 at the lower bound instead of queueing.
	st.insertSlot(0, 0, 100)
	c, s := st.slotFor(0, 50)
	if c != 1 || s != 0 {
		t.Errorf("slotFor = controller %d at %d, want controller 1 at 0", c, s)
	}
}

func TestReconfLowerBound(t *testing.T) {
	pf := testTimeline(t, true)
	r := &iskRegion{freeAt: 100}
	// Prefetching: bounded by the region only.
	if got := pf.reconfLowerBound(r, 500); got != 100 {
		t.Errorf("prefetch lower bound = %d, want 100", got)
	}
	nopf := testTimeline(t, false)
	// No prefetching: also waits for the task's readiness.
	if got := nopf.reconfLowerBound(r, 500); got != 500 {
		t.Errorf("no-prefetch lower bound = %d, want 500", got)
	}
	if got := nopf.reconfLowerBound(r, 50); got != 100 {
		t.Errorf("no-prefetch bound below freeAt = %d, want 100", got)
	}
}

func TestReadyWithComm(t *testing.T) {
	g := taskgraph.New("g")
	g.AddTask("a", sw("a_sw", 100))
	g.AddTask("b", sw("b_sw", 100))
	if err := g.AddEdgeComm(0, 1, 77); err != nil {
		t.Fatal(err)
	}
	a := arch.ZedBoard()
	st := newTimeline(g, a, a.MaxRes, false, false)
	if got := st.ready(1); got != -1 {
		t.Errorf("ready before predecessor scheduled = %d", got)
	}
	st.impl[0] = 0
	st.end[0] = 250
	if got := st.ready(1); got != 327 {
		t.Errorf("ready = %d, want 327 (end 250 + comm 77)", got)
	}
}

func TestApplyUndoRoundTrip(t *testing.T) {
	st := testTimeline(t, true)
	snapshot := func() (int, resources.Vector, int64, int64) {
		return len(st.regions), st.usedRes, st.makespan, st.sumEnds
	}
	r0, u0, m0, s0 := snapshot()

	opts := st.options(nil, 0)
	if len(opts) == 0 {
		t.Fatal("no options for task 0")
	}
	for _, o := range opts {
		ap, err := st.apply(o, false)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if st.impl[0] != o.impl {
			t.Fatalf("apply did not set impl")
		}
		st.undo(ap)
		if st.impl[0] != -1 {
			t.Fatalf("undo did not clear impl")
		}
		r1, u1, m1, s1 := snapshot()
		if r0 != r1 || u0 != u1 || m0 != m1 || s0 != s1 {
			t.Fatalf("undo left state dirty for option %+v", o)
		}
		for c := range st.slots {
			if len(st.slots[c]) != 0 {
				t.Fatalf("undo left controller slots: %+v", st.slots[c])
			}
		}
	}
}

func TestOptionsShortlist(t *testing.T) {
	// With many compatible regions, the per-implementation shortlist keeps
	// only the reuse match and the two earliest-finishing candidates.
	g := taskgraph.New("g")
	g.AddTask("seed0", sw("x_sw", 100), hw("mod_a", 50, 500))
	g.AddTask("seed1", sw("y_sw", 100), hw("mod_b", 50, 500))
	g.AddTask("seed2", sw("z_sw", 100), hw("mod_c", 50, 500))
	g.AddTask("cand", sw("c_sw", 100), hw("mod_a", 50, 400))
	a := arch.ZedBoard()
	st := newTimeline(g, a, a.MaxRes, true, true)
	st.tails = make([]int64, g.N())
	// Seed three regions by applying new-region options for tasks 0–2.
	for task := 0; task < 3; task++ {
		st.apply(option{task: task, impl: 1, kind: optNewRegion}, false)
	}
	if len(st.regions) != 3 {
		t.Fatalf("%d regions seeded", len(st.regions))
	}
	opts := st.options(nil, 3)
	var existing, reuse, newRegion, swOpts int
	for _, o := range opts {
		switch o.kind {
		case optExisting:
			existing++
		case optReuse:
			reuse++
		case optNewRegion:
			newRegion++
		case optSW:
			swOpts++
		}
	}
	if reuse != 1 {
		t.Errorf("reuse options = %d, want 1 (region loaded with mod_a)", reuse)
	}
	if existing > 2 {
		t.Errorf("existing options = %d, want ≤ 2 (shortlist)", existing)
	}
	if newRegion != 1 || swOpts != 1 {
		t.Errorf("option mix: new=%d sw=%d", newRegion, swOpts)
	}
}

func TestPriorityOrderRespectsDepth(t *testing.T) {
	g := taskgraph.New("g")
	for i := 0; i < 4; i++ {
		g.AddTask("t", sw("s", 100))
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	// Task 3 independent.
	order, err := priorityOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	if !(pos[0] < pos[1] && pos[1] < pos[2]) {
		t.Errorf("depth order violated: %v", order)
	}
}

func TestTailsComputation(t *testing.T) {
	g := taskgraph.New("g")
	g.AddTask("a", sw("s", 100))
	g.AddTask("b", sw("s", 200))
	g.AddTask("c", sw("s", 300))
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	ts := tails(g)
	// tail(a) = 200 + 300, tail(b) = 300, tail(c) = 0.
	if ts[0] != 500 || ts[1] != 300 || ts[2] != 0 {
		t.Errorf("tails = %v", ts)
	}
	// With communication on the edges the tails include it.
	g2 := taskgraph.New("g2")
	g2.AddTask("a", sw("s", 100))
	g2.AddTask("b", sw("s", 200))
	if err := g2.AddEdgeComm(0, 1, 40); err != nil {
		t.Fatal(err)
	}
	if ts := tails(g2); ts[0] != 240 {
		t.Errorf("comm tail = %v", ts)
	}
}

func TestEmitRoundTrip(t *testing.T) {
	st := testTimeline(t, true)
	st.tails = make([]int64, st.g.N())
	var nodes int
	if err := st.solveWindow([]int{0}, 1000, &nodes, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.solveWindow([]int{1}, 1000, &nodes, nil); err != nil {
		t.Fatal(err)
	}
	sch := st.emit("IS-1", false)
	if errs := schedule.Check(sch); len(errs) > 0 {
		t.Fatalf("emitted schedule invalid: %v", errs)
	}
	if sch.Algorithm != "IS-1" || sch.Makespan != 100 {
		t.Errorf("emit: %s", sch.Summary())
	}
}

// TestWindowSearchZeroAllocs pins the allocation contract of the window
// branch and bound: once a timeline's search buffers have grown, searching
// a window allocates nothing — undo records are values, option and
// ready-task lists reuse per-depth rows, regions reuse their backing array.
func TestWindowSearchZeroAllocs(t *testing.T) {
	g := genGraph(t, benchgen.Config{Tasks: 20, Seed: 3})
	a := arch.ZedBoard()
	st := newTimeline(g, a, a.MaxRes, true, false)
	st.tails = tails(g)
	order, err := priorityOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	// Commit the first window so the searched one sees regions, busy
	// processors and controller slots.
	var nodes int
	if err := st.solveWindow(order[:5], budget.WindowNodes, &nodes, nil); err != nil {
		t.Fatal(err)
	}
	window := order[5:10]
	plan, err := st.searchWindow(window, budget.WindowNodes, &nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != len(window) {
		t.Fatalf("plan covers %d of %d tasks", len(plan), len(window))
	}
	before := nodes
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := st.searchWindow(window, budget.WindowNodes, &nodes, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("window search: %v allocs/op, want 0", allocs)
	}
	if nodes == before {
		t.Fatal("window search explored no nodes")
	}
}
