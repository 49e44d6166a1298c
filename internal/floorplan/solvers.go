package floorplan

import (
	"fmt"
	"math/bits"
	"sort"

	"resched/internal/arch"
	"resched/internal/lp"
	"resched/internal/milp"
	"resched/internal/resources"
)

const defaultMaxNodes = 200000

// solveBacktracking runs an exact DFS that assigns one placement per region.
// Regions are placed biggest minimal footprint first, ties toward fewer
// candidates, and each region's candidates are tried in their sorted order.
// At every DFS entry the candidates that overlap a placement chosen so far
// are found at once: each chosen rectangle selects four rows of the
// region's prefix-bitset tables (see candSet), whose AND is the set it
// clashes with, and the OR over the chosen rectangles is the depth's clash
// set. The loop then jumps to the next free candidate with
// bits.TrailingZeros64. Every candidate it passes still counts as a search
// node: a skipped run is added to Result.Nodes and charged to the budget in
// one ChargeRun, so node counts, aborts and the first solution found are
// those of a loop that tests candidates one by one.
func (p *Planner) solveBacktracking(regions []resources.Vector, sets []candSet, opt Options, res *Result) {
	f := p.f
	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	// Biggest-footprint-first ordering (classic bin packing: place the hard
	// rectangles while the fabric is empty), breaking ties toward regions
	// with fewer candidate placements.
	order := make([]int, len(regions))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := sets[order[a]], sets[order[b]]
		// Candidates are sorted smallest-area first.
		if aa, ab := sa.cands[0].Area(), sb.cands[0].Area(); aa != ab {
			return aa > ab
		}
		if len(sa.cands) != len(sb.cands) {
			return len(sa.cands) < len(sb.cands)
		}
		return order[a] < order[b]
	})

	// Aggregate free-cell bound: a region needing res_k units of kind k
	// must cover at least ⌈res_k / unitsPerCell_k⌉ cells of that kind, so
	// whenever the cells still needed by the unplaced regions exceed the
	// free cells of some kind, the branch is dead. suffixNeed[k] sums the
	// cells needed from search depth k to the end.
	suffixNeed := make([]resources.Vector, len(order)+1)
	for k := len(order) - 1; k >= 0; k-- {
		suffixNeed[k] = suffixNeed[k+1]
		for kind, req := range regions[order[k]] {
			if req > 0 {
				per := f.UnitsPerCell[kind]
				suffixNeed[k][kind] += (req + per - 1) / per
			}
		}
	}
	width, rows := f.Width(), f.Rows
	kindCols := p.kindCols
	freeCells := kindCols[width].Scale(rows)

	// One clash bitset per depth, covering the depth's (possibly capped)
	// candidate view.
	offset := make([]int, len(order)+1)
	for k, region := range order {
		offset[k+1] = offset[k] + (len(sets[region].cands)+63)/64
	}
	if cap(p.clash) < offset[len(order)] {
		p.clash = make([]uint64, offset[len(order)])
	}
	chosen := make([]Placement, len(regions))
	aborted := false

	var dfs func(k int) bool
	dfs = func(k int) bool {
		if k == len(order) {
			return true
		}
		if !suffixNeed[k].Fits(freeCells) {
			return false
		}
		if res.Nodes >= maxNodes {
			aborted = true
			return false
		}
		region := order[k]
		s := &sets[region]
		n := len(s.cands)
		clash := p.clash[offset[k]:offset[k+1]]
		clear(clash)
		x1Gt, y0Lt, y1Gt := (width+1)*s.words, 2*(width+1)*s.words, (2*(width+1)+rows+1)*s.words
		for _, placed := range order[:k] {
			q := chosen[placed]
			a := s.tabs[q.X1*s.words:]
			b := s.tabs[x1Gt+q.X0*s.words:]
			c := s.tabs[y0Lt+q.Y1*s.words:]
			d := s.tabs[y1Gt+q.Y0*s.words:]
			for w := range clash {
				clash[w] |= a[w] & b[w] & c[w] & d[w]
			}
		}
		for j := 0; j < n; {
			// Candidates j..next-1 clash; next is free, or n when none is.
			next := nextFree(clash, j, n)
			visited := next - j
			if next < n {
				visited++
			}
			// Every node passed is charged, a run at a time, so a cancel or
			// deadline lands within microseconds of search; an aborted run
			// reports infeasible-unproven below.
			ok, err := opt.Budget.ChargeRun(int64(visited))
			if err != nil {
				res.Nodes += int(ok) + 1
				aborted = true
				return false
			}
			res.Nodes += visited
			if next == n {
				return false
			}
			pl := s.cands[next]
			covered := kindCols[pl.X1].Sub(kindCols[pl.X0]).Scale(pl.Y1 - pl.Y0)
			freeCells = freeCells.Sub(covered)
			chosen[region] = pl
			if dfs(k + 1) {
				return true
			}
			freeCells = freeCells.Add(covered)
			if aborted {
				return false
			}
			j = next + 1
		}
		return false
	}

	if dfs(0) {
		res.Feasible, res.Proven = true, true
		res.Placements = chosen
		return
	}
	res.Feasible = false
	res.Proven = !aborted
}

// nextFree returns the first index in [j, n) whose clash bit is clear, or n
// when every one is set.
func nextFree(clash []uint64, j, n int) int {
	for w := j / 64; w < len(clash); w++ {
		free := ^clash[w]
		if w == j/64 {
			free &= ^uint64(0) << (j % 64)
		}
		if free != 0 {
			return min(w*64+bits.TrailingZeros64(free), n)
		}
	}
	return n
}

// solveMILP builds the 0/1 selection model of ref [3]: one binary variable
// per (region, candidate placement), an exactly-one row per region, and an
// at-most-one row per fabric cell covered by at least two candidates.
func solveMILP(f *arch.Fabric, regions []resources.Vector, cands [][]Placement, opt Options, res *Result) error {
	nvars := 0
	varOf := make([][]int, len(cands))
	for i, cs := range cands {
		varOf[i] = make([]int, len(cs))
		for j := range cs {
			varOf[i][j] = nvars
			nvars++
		}
	}
	p := milp.New(nvars)
	for v := 0; v < nvars; v++ {
		p.SetBinary(v)
	}
	p.LP.SetObjective(make([]float64, nvars), false) // pure feasibility, as in §V-H

	// Exactly one placement per region.
	for i := range cands {
		coef := make([]float64, len(varOf[i]))
		for j := range coef {
			coef[j] = 1
		}
		if err := p.LP.AddSparse(varOf[i], coef, lp.EQ, 1); err != nil {
			return err
		}
	}
	// Cell-capacity rows.
	for y := 0; y < f.Rows; y++ {
		for x := 0; x < f.Width(); x++ {
			var idx []int
			for i, cs := range cands {
				for j, pc := range cs {
					if pc.X0 <= x && x < pc.X1 && pc.Y0 <= y && y < pc.Y1 {
						idx = append(idx, varOf[i][j])
					}
				}
			}
			if len(idx) < 2 {
				continue
			}
			coef := make([]float64, len(idx))
			for k := range coef {
				coef[k] = 1
			}
			if err := p.LP.AddSparse(idx, coef, lp.LE, 1); err != nil {
				return err
			}
		}
	}

	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	sol, err := p.Solve(milp.Options{MaxNodes: maxNodes, Budget: opt.Budget, Faults: opt.Faults, FirstIncumbent: true})
	if err != nil {
		return err
	}
	res.Nodes = sol.Nodes
	switch sol.Status {
	case milp.Optimal, milp.Feasible:
		res.Feasible, res.Proven = true, true
		res.Placements = make([]Placement, len(cands))
		for i := range cands {
			found := false
			for j := range cands[i] {
				if sol.X[varOf[i][j]] > 0.5 {
					res.Placements[i] = cands[i][j]
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("floorplan: MILP solution selects no placement for region %d", i)
			}
		}
	case milp.Infeasible:
		res.Feasible, res.Proven = false, true
	default:
		res.Feasible, res.Proven = false, false
	}
	return nil
}
