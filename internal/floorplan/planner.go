package floorplan

import (
	"fmt"
	"time"

	"resched/internal/arch"
	"resched/internal/obs"
	"resched/internal/resources"
)

// Planner answers floorplanning queries on one fabric. The candidate data
// of every region — sorted placements and overlap tables — comes from the
// fabric's shared Catalog, so no query re-enumerates a column-need class
// any query in the process has seen; the Planner keeps only its DFS
// scratch. A scheduler that floorplans repeatedly (PA across its shrink
// retries, a PA-R worker across its improvements, IS-k across its
// attempts) holds one Planner.
//
// A Planner is not safe for concurrent use; give each goroutine its own.
// Its answers are exactly those of Solve, which is a fresh Planner's.
type Planner struct {
	f *arch.Fabric
	// clash is the DFS scratch: one clash bitset per search depth.
	clash []uint64
}

// NewPlanner returns a planner for the fabric.
func NewPlanner(f *arch.Fabric) *Planner {
	return &Planner{f: f}
}

// Solve searches for a disjoint placement of all regions on the planner's
// fabric, as the package-level Solve does. Regions with zero requirements
// are rejected.
func (p *Planner) Solve(regions []resources.Vector, opt Options) (*Result, error) {
	sp := opt.Trace.Start("floorplan.solve", obs.Int("regions", int64(len(regions))))
	if opt.Faults.FloorplanSolve() {
		opt.Trace.Count("floorplan.calls", 1)
		opt.Trace.Count("floorplan.infeasible", 1)
		opt.Trace.Count("floorplan.faults", 1)
		sp.End(obs.Str("outcome", "fault-infeasible"))
		return &Result{}, nil
	}
	res, err := p.solve(regions, opt)
	opt.Trace.Count("floorplan.calls", 1)
	switch {
	case err != nil:
		opt.Trace.Count("floorplan.errors", 1)
		sp.End(obs.Str("outcome", "error"))
	case res.Feasible:
		opt.Trace.Count("floorplan.feasible", 1)
		opt.Trace.Count("floorplan.nodes", int64(res.Nodes))
		sp.End(obs.Str("outcome", "feasible"), obs.Int("nodes", int64(res.Nodes)))
	default:
		opt.Trace.Count("floorplan.infeasible", 1)
		opt.Trace.Count("floorplan.nodes", int64(res.Nodes))
		outcome := "infeasible"
		if !res.Proven {
			// Only the node cap or the budget leaves a "no" unproven.
			opt.Trace.Count("floorplan.unproven", 1)
			outcome = "infeasible-unproven"
		}
		sp.End(obs.Str("outcome", outcome), obs.Int("nodes", int64(res.Nodes)))
	}
	return res, err
}

// solve is the uninstrumented search behind Solve.
func (p *Planner) solve(regions []resources.Vector, opt Options) (*Result, error) {
	start := time.Now()
	f := p.f
	if err := f.Validate(); err != nil {
		return nil, err
	}
	for i, r := range regions {
		if r.Zero() {
			return nil, fmt.Errorf("floorplan: region %d has no resource requirements", i)
		}
		if !r.NonNegative() {
			return nil, fmt.Errorf("floorplan: region %d has negative requirements %v", i, r)
		}
	}
	res := &Result{}
	if len(regions) == 0 {
		res.Feasible, res.Proven = true, true
		res.Elapsed = time.Since(start)
		return res, nil
	}
	// Quick capacity cut: total demand exceeding the device is a proven no.
	var total resources.Vector
	for _, r := range regions {
		total = total.Add(r)
	}
	if !total.Fits(f.Capacity()) {
		res.Proven = true
		res.Elapsed = time.Since(start)
		return res, nil
	}
	cat := CatalogOf(f)

	sets := make([]candSet, len(regions))
	fits := true
	var built, reused int64
	for i, r := range regions {
		s, miss := cat.candidates(cat.needKey(r))
		if miss {
			built++
		} else {
			reused++
		}
		if len(s.cands) == 0 {
			fits = false
			break
		}
		sets[i] = s
	}
	opt.Trace.Count("floorplan.candsets_built", built)
	opt.Trace.Count("floorplan.candsets_reused", reused)
	if !fits {
		// A region does not fit the device at all: proven infeasible.
		res.Proven = true
		res.Elapsed = time.Since(start)
		return res, nil
	}
	p.solveBacktracking(regions, sets, cat.kindCols, opt, res)
	res.Elapsed = time.Since(start)
	return res, nil
}
