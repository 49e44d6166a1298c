package floorplan

import (
	"testing"
	"time"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/obs"
	"resched/internal/resources"
)

func zynq() *arch.Fabric { return arch.NewZynqFabric() }

func TestEnumerateBasics(t *testing.T) {
	f := zynq()
	// 100 slices = exactly one CLB column cell.
	req := resources.Vec(100, 0, 0)
	ps := Enumerate(f, req)
	if len(ps) == 0 {
		t.Fatal("no placements for a single CLB cell")
	}
	for _, p := range ps {
		got := f.RectResources(p.X0, p.X1, p.Y0, p.Y1)
		if !req.Fits(got) {
			t.Fatalf("placement %v provides %v, needs %v", p, got, req)
		}
		if p.X0 < 0 || p.X1 > f.Width() || p.Y0 < 0 || p.Y1 > f.Rows {
			t.Fatalf("placement %v out of bounds", p)
		}
	}
	// There must be a minimal 1×1 placement starting at a CLB column.
	found := false
	for _, p := range ps {
		if p.Area() == 1 {
			found = true
		}
	}
	if !found {
		t.Error("no 1-cell placement for a 1-cell requirement")
	}
}

func TestEnumerateZeroAndHuge(t *testing.T) {
	f := zynq()
	if got := Enumerate(f, resources.Vector{}); len(got) != 0 {
		t.Errorf("zero request enumerated %d placements", len(got))
	}
	// More than the device offers: nothing.
	huge := f.Capacity().Add(resources.Vec(1, 0, 0))
	if got := Enumerate(f, huge); len(got) != 0 {
		t.Errorf("oversized request enumerated %d placements", len(got))
	}
	// Exactly the device: the full-fabric rectangle (for every h that
	// works, i.e. only h = Rows).
	ps := Enumerate(f, f.Capacity())
	if len(ps) != 1 {
		t.Fatalf("full-device request enumerated %v", ps)
	}
	if ps[0] != (Placement{0, f.Width(), 0, f.Rows}) {
		t.Errorf("full-device placement = %v", ps[0])
	}
}

func TestEnumerateMixedResources(t *testing.T) {
	f := zynq()
	// Needs BRAM and DSP: every placement must span both column types.
	req := resources.Vec(200, 5, 10)
	ps := Enumerate(f, req)
	if len(ps) == 0 {
		t.Fatal("no placements for mixed requirement")
	}
	for _, p := range ps {
		if !req.Fits(f.RectResources(p.X0, p.X1, p.Y0, p.Y1)) {
			t.Fatalf("placement %v does not cover %v", p, req)
		}
	}
}

// Minimality: no placement with the same x0 and row span is narrower.
func TestEnumerateMinimalWidth(t *testing.T) {
	f := zynq()
	req := resources.Vec(300, 10, 0)
	for _, p := range Enumerate(f, req) {
		if p.X1-p.X0 <= 1 {
			continue
		}
		if req.Fits(f.RectResources(p.X0, p.X1-1, p.Y0, p.Y1)) {
			t.Fatalf("placement %v not minimal width", p)
		}
	}
}

func TestSolveEmpty(t *testing.T) {
	res, err := Solve(zynq(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || !res.Proven {
		t.Error("empty region set must be trivially feasible")
	}
}

func TestSolveRejectsBadRegions(t *testing.T) {
	if _, err := Solve(zynq(), []resources.Vector{{}}, Options{}); err == nil {
		t.Error("zero-requirement region accepted")
	}
	if _, err := Solve(zynq(), []resources.Vector{resources.Vec(-1, 0, 0)}, Options{}); err == nil {
		t.Error("negative-requirement region accepted")
	}
}

func TestSolveSimple(t *testing.T) {
	f := zynq()
	regions := []resources.Vector{
		resources.Vec(400, 0, 0),
		resources.Vec(200, 10, 0),
		resources.Vec(100, 0, 20),
		resources.Vec(600, 10, 20),
	}
	res, err := Solve(f, regions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("feasible instance reported infeasible")
	}
	if err := Verify(f, regions, res.Placements); err != nil {
		t.Fatalf("invalid placements: %v", err)
	}
}

func TestSolveCapacityCut(t *testing.T) {
	f := zynq()
	regions := []resources.Vector{f.Capacity(), resources.Vec(100, 0, 0)}
	res, err := Solve(f, regions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible || !res.Proven {
		t.Errorf("capacity-exceeding instance: feasible=%v proven=%v", res.Feasible, res.Proven)
	}
	if res.Nodes != 0 {
		t.Errorf("capacity cut should not search, explored %d nodes", res.Nodes)
	}
}

func TestSolveRegionTooBigForDevice(t *testing.T) {
	f := zynq()
	// Fits capacity-wise per kind? Make one that can't: more BRAM than a
	// full-height device provides in any rectangle is just more than
	// capacity, so instead ask for a shape requiring > capacity of DSP.
	regions := []resources.Vector{resources.Vec(0, 0, f.Capacity()[resources.DSP]+1)}
	res, err := Solve(f, regions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("impossible region reported feasible")
	}
}

func TestSolveTightPacking(t *testing.T) {
	// Fill the device with full-height single-column CLB regions: the Zynq
	// fabric has 44 CLB columns; request 44 regions of 300 slices each.
	f := zynq()
	var regions []resources.Vector
	for i := 0; i < 44; i++ {
		regions = append(regions, resources.Vec(300, 0, 0))
	}
	res, err := Solve(f, regions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("tight packing reported infeasible")
	}
	if err := Verify(f, regions, res.Placements); err != nil {
		t.Fatal(err)
	}
	// One more region cannot fit (all CLB columns used, BRAM/DSP columns
	// provide no CLB).
	regions = append(regions, resources.Vec(100, 0, 0))
	res, err = Solve(f, regions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("overpacked instance reported feasible")
	}
}

func TestBudgetAbort(t *testing.T) {
	f := zynq()
	var regions []resources.Vector
	for i := 0; i < 30; i++ {
		regions = append(regions, resources.Vec(300, 0, 0))
	}
	// An expired fake-clock deadline trips on the first charged node.
	clk := faultinject.NewClock()
	bud := budget.New(budget.Options{Deadline: clk.Now().Add(-time.Second), Clock: clk.Now})
	res, err := Solve(f, regions, Options{Budget: bud})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("aborted search returned placements")
	}
	if res.Proven {
		t.Error("aborted search claimed a proof")
	}
	if res.Nodes > 1 {
		t.Errorf("expired budget explored %d nodes", res.Nodes)
	}
}

func TestVerifyRejections(t *testing.T) {
	f := zynq()
	regions := []resources.Vector{resources.Vec(100, 0, 0), resources.Vec(100, 0, 0)}
	good := []Placement{{0, 1, 0, 1}, {1, 2, 0, 1}}
	if err := Verify(f, regions, good); err != nil {
		t.Fatalf("valid placements rejected: %v", err)
	}
	if err := Verify(f, regions, good[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := Verify(f, regions, []Placement{{0, 1, 0, 1}, {0, 1, 0, 1}}); err == nil {
		t.Error("overlap accepted")
	}
	if err := Verify(f, regions, []Placement{{-1, 1, 0, 1}, {1, 2, 0, 1}}); err == nil {
		t.Error("out-of-bounds accepted")
	}
	// Placement over a BRAM column provides no CLB.
	bramCol := -1
	for x := 0; x < f.Width(); x++ {
		if f.CellResources(x)[resources.BRAM] > 0 {
			bramCol = x
			break
		}
	}
	if err := Verify(f, regions, []Placement{{bramCol, bramCol + 1, 0, 1}, {1, 2, 0, 1}}); err == nil {
		t.Error("insufficient placement accepted")
	}
}

func TestPlacementHelpers(t *testing.T) {
	a := Placement{0, 2, 0, 1}
	b := Placement{1, 3, 0, 2}
	c := Placement{2, 4, 0, 1}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("overlap symmetric check failed")
	}
	if a.Overlaps(c) {
		t.Error("adjacent rectangles reported overlapping")
	}
	if a.Area() != 2 {
		t.Errorf("Area = %d", a.Area())
	}
	if a.String() == "" {
		t.Error("string helpers")
	}
}

// TestBudgetMidSearchNotProven aborts the backtracking search in the middle
// of the placement tree (node cap, then cancellation) and verifies the
// verdict is demoted to unproven: an aborted search may say "no placement
// found" but never "no placement exists".
func TestBudgetMidSearchNotProven(t *testing.T) {
	f := zynq()
	// An instance the unlimited search solves, but only after more nodes
	// than the caps below allow: every complete assignment of 30 regions
	// needs at least one search node per region.
	var regions []resources.Vector
	for i := 0; i < 30; i++ {
		regions = append(regions, resources.Vec(300, 0, 0))
	}
	full, err := Solve(f, regions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Feasible || !full.Proven {
		t.Fatalf("reference solve: feasible=%v proven=%v, want proven feasible", full.Feasible, full.Proven)
	}
	if full.Nodes <= 10 {
		t.Skipf("instance too easy to abort mid-search (%d nodes)", full.Nodes)
	}

	t.Run("node cap", func(t *testing.T) {
		bud := budget.New(budget.Options{MaxNodes: 10})
		res, err := Solve(f, regions, Options{Budget: bud})
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible {
			t.Error("10 nodes cannot place 30 regions, yet the search returned placements")
		}
		if res.Proven {
			t.Error("search aborted mid-tree still claimed a proof")
		}
		if res.Nodes > 11 {
			t.Errorf("explored %d nodes past a cap of 10", res.Nodes)
		}
	})

	t.Run("cancellation", func(t *testing.T) {
		bud := budget.New(budget.Options{})
		bud.Cancel()
		res, err := Solve(f, regions, Options{Budget: bud})
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible || res.Proven {
			t.Errorf("cancelled search: feasible=%v proven=%v, want neither", res.Feasible, res.Proven)
		}
		if res.Nodes > 1 {
			t.Errorf("cancelled budget explored %d nodes", res.Nodes)
		}
	})
}

// floorplan.unproven counts the "no" answers a node cap or the budget cut
// short, and nothing else: not a proven "no", not a "yes", not a forced
// fault (those count as floorplan.faults).
func TestUnprovenCounter(t *testing.T) {
	f := zynq()
	tight := make([]resources.Vector, 30)
	for i := range tight {
		tight[i] = resources.Vec(300, 0, 0)
	}
	cancelled := budget.New(budget.Options{})
	cancelled.Cancel()
	forced := faultinject.New()
	forced.ForceFloorplanInfeasible(1)
	cases := []struct {
		name    string
		regions []resources.Vector
		opt     Options
		want    int64
	}{
		{"node cap", tight, Options{MaxNodes: 1}, 1},
		{"budget", tight, Options{Budget: cancelled}, 1},
		{"proven no", []resources.Vector{f.Capacity(), resources.Vec(100, 0, 0)}, Options{}, 0},
		{"feasible", tight, Options{}, 0},
		{"fault", tight, Options{Faults: forced}, 0},
	}
	for _, c := range cases {
		tr := obs.New()
		c.opt.Trace = tr
		res, err := Solve(f, c.regions, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := tr.Snapshot().Counters["floorplan.unproven"]; got != c.want {
			t.Errorf("%s: floorplan.unproven = %d, want %d (feasible=%v proven=%v)", c.name, got, c.want, res.Feasible, res.Proven)
		}
	}
}
