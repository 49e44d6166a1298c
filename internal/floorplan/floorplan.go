// Package floorplan decides whether a set of reconfigurable regions admits a
// placement on the FPGA fabric that complies with partial-reconfiguration
// constraints. It follows the structure of the paper's floorplanner
// (Rabozzi et al., FCCM 2015 — ref [3]): first enumerate the *feasible
// placements* of every region (axis-aligned rectangles of whole columns
// spanning whole clock-region rows that cover the region's resource
// requirement), then search for a pairwise-disjoint selection, one placement
// per region.
//
// Two selection engines are provided: a backtracking search (default, exact
// over the full placement sets) and a MILP formulation solved by the
// in-repo branch-and-bound solver, mirroring the MILP of ref [3]. As in
// §V-H of the paper, only feasibility is queried — no objective function.
package floorplan

import (
	"errors"
	"fmt"
	"time"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/obs"
	"resched/internal/resources"
)

// ErrInfeasible is the sentinel schedulers wrap when they exhaust their
// shrink-retry policy without finding a floorplan-feasible schedule. It
// lives here — the common dependency of sched and isk — and is re-exported
// as sched.ErrFloorplanInfeasible; match it with errors.Is.
var ErrInfeasible = errors.New("no floorplan-feasible schedule")

// Placement is a candidate rectangle for one region: columns [X0, X1) and
// clock-region rows [Y0, Y1).
type Placement struct {
	X0, X1, Y0, Y1 int
}

// Area returns the number of fabric cells covered.
func (p Placement) Area() int { return (p.X1 - p.X0) * (p.Y1 - p.Y0) }

// Overlaps reports whether two rectangles intersect.
func (p Placement) Overlaps(q Placement) bool {
	return p.X0 < q.X1 && q.X0 < p.X1 && p.Y0 < q.Y1 && q.Y0 < p.Y1
}

// String renders the rectangle.
func (p Placement) String() string {
	return fmt.Sprintf("cols[%d,%d) rows[%d,%d)", p.X0, p.X1, p.Y0, p.Y1)
}

// Enumerate lists the feasible placements of a region with the given
// resource requirement: for every clock-region row span and every starting
// column, the minimal-width rectangle covering the requirement. Minimal-
// width placements are sufficient for feasibility: any solution using a
// wider rectangle remains valid after shrinking it to minimal width.
func Enumerate(f *arch.Fabric, req resources.Vector) []Placement {
	// Count first: the scan is cheap, growing the slice by appends is not.
	n := 0
	minimalSpans(f, req, func(_, _, h int, _ resources.Vector) { n += f.Rows - h + 1 })
	if n == 0 {
		return nil
	}
	out := make([]Placement, 0, n)
	minimalSpans(f, req, func(x0, x1, h int, _ resources.Vector) {
		for y0 := 0; y0+h <= f.Rows; y0++ {
			out = append(out, Placement{X0: x0, X1: x1, Y0: y0, Y1: y0 + h})
		}
	})
	return out
}

// minimalSpans is the two-pointer scan behind Enumerate: for every height h
// (ascending) and starting column x0 (ascending) it reports the minimal x1
// such that columns [x0, x1) over h rows cover req, together with the
// number of columns of each kind in the span. Every row offset of a
// reported span is a placement; all of them have the same area and
// content. The scan counts columns against the per-kind column need of
// height h, so a step is a few integer comparisons.
func minimalSpans(f *arch.Fabric, req resources.Vector, visit func(x0, x1, h int, cols resources.Vector)) {
	if req.Zero() {
		return
	}
	w := f.Width()
	for h := 1; h <= f.Rows; h++ {
		// need[k] is the fewest kind-k columns whose h cells cover req[k].
		var need resources.Vector
		for k, r := range req {
			if r <= 0 {
				continue
			}
			per := f.UnitsPerCell[k] * h
			if per <= 0 {
				return // the fabric holds none of kind k: nothing fits
			}
			need[k] = (r + per - 1) / per
		}
		var cols resources.Vector
		x1 := 0
		for x0 := 0; x0 < w; x0++ {
			if x1 < x0 {
				x1 = x0
				cols = resources.Vector{}
			}
			for x1 < w && !need.Fits(cols) {
				cols[f.Columns[x1]]++
				x1++
			}
			if !need.Fits(cols) {
				break // no wider rectangle from x0 helps; larger x0 neither
			}
			visit(x0, x1, h, cols)
			// Slide: remove column x0 before advancing.
			cols[f.Columns[x0]]--
		}
	}
}

// Method selects the placement-search engine.
type Method int

const (
	// Backtracking is the exact DFS search over full placement sets.
	Backtracking Method = iota
	// MILP builds the 0/1 selection model of ref [3] and solves it with
	// the in-repo branch-and-bound solver.
	MILP
)

// String names the method.
func (m Method) String() string {
	switch m {
	case Backtracking:
		return "backtracking"
	case MILP:
		return "milp"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options tune the search.
type Options struct {
	Method Method
	// MaxCandidates caps the number of placements considered per region
	// (0 = defaults: unlimited for backtracking, 40 for MILP). Capping
	// trades completeness for speed; an infeasible answer under a cap is
	// reported as unproven.
	MaxCandidates int
	// MaxNodes caps search nodes in this solve (0 = 200 000).
	MaxNodes int
	// Budget, when non-nil, is charged one unit per search node; exhaustion
	// (deadline, shared node cap, or cancellation) aborts the search, which
	// then reports infeasible-unproven — never Proven. Replaces the old
	// Deadline field.
	Budget *budget.Budget
	// Faults, when armed, can steal the solve: a forced floorplan fault
	// reports infeasible-unproven without searching.
	Faults *faultinject.Set
	// Trace, when non-nil, records a floorplan.solve span (method, region
	// count, outcome, node count) and feasibility counters per invocation.
	// A nil trace is a no-op.
	Trace *obs.Trace
}

// Result is the outcome of a floorplanning query.
type Result struct {
	// Feasible reports whether a valid placement assignment was found.
	Feasible bool
	// Proven is true when the answer is exact: a found assignment is
	// always proven; an infeasibility verdict is proven only if the search
	// completed without hitting a candidate cap, node cap or deadline.
	Proven bool
	// Placements holds one rectangle per region when Feasible.
	Placements []Placement
	// Nodes counts explored search nodes.
	Nodes int
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
}

// Solve searches for a disjoint placement of all regions on the fabric.
// Regions with zero requirements are rejected. It is a fresh Planner's
// Solve; callers that floorplan repeatedly should keep one Planner.
func Solve(f *arch.Fabric, regions []resources.Vector, opt Options) (*Result, error) {
	return NewPlanner(f).Solve(regions, opt)
}

// Verify checks that the placements cover their regions' requirements and
// are pairwise disjoint; used by tests and callers that persist solutions.
func Verify(f *arch.Fabric, regions []resources.Vector, placements []Placement) error {
	if len(placements) != len(regions) {
		return fmt.Errorf("floorplan: %d placements for %d regions", len(placements), len(regions))
	}
	for i, p := range placements {
		if p.X0 < 0 || p.X1 > f.Width() || p.Y0 < 0 || p.Y1 > f.Rows || p.X0 >= p.X1 || p.Y0 >= p.Y1 {
			return fmt.Errorf("floorplan: region %d placement %v out of fabric bounds", i, p)
		}
		got := f.RectResources(p.X0, p.X1, p.Y0, p.Y1)
		if !regions[i].Fits(got) {
			return fmt.Errorf("floorplan: region %d needs %v, placement %v provides %v", i, regions[i], p, got)
		}
		for j := 0; j < i; j++ {
			if p.Overlaps(placements[j]) {
				return fmt.Errorf("floorplan: placements of regions %d and %d overlap (%v, %v)", j, i, placements[j], p)
			}
		}
	}
	return nil
}

// PlacementFootprint estimates the device resources a region will actually
// occupy once placed: the full content of its minimal-area feasible
// placement, including resource columns the rectangle covers incidentally.
// Schedulers use it for capacity accounting so that "fits the device"
// tracks what the floorplanner can really place; it falls back to the raw
// requirement when the region does not fit the fabric at all.
func PlacementFootprint(f *arch.Fabric, req resources.Vector) resources.Vector {
	// The first minimal-area span in Enumerate order wins; every row offset
	// of a span has its area and content, so spans are enough.
	best := req
	bestArea := -1
	minimalSpans(f, req, func(x0, x1, h int, cols resources.Vector) {
		if a := (x1 - x0) * h; bestArea < 0 || a < bestArea {
			bestArea = a
			for k, c := range cols {
				best[k] = c * f.UnitsPerCell[k] * h
			}
		}
	})
	return best
}
