package floorplan

import (
	"fmt"
	"sort"

	"resched/internal/arch"
	"resched/internal/lp"
	"resched/internal/milp"
	"resched/internal/resources"
)

const defaultMaxNodes = 200000

// solveBacktracking runs an exact DFS: regions are ordered most-constrained
// first (fewest candidate placements), and the fabric occupancy is tracked
// with one bitmask per clock-region row.
func solveBacktracking(f *arch.Fabric, regions []resources.Vector, cands [][]Placement, opt Options, res *Result) error {
	words := (f.Width() + 63) / 64
	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	// Biggest-footprint-first ordering (classic bin packing: place the hard
	// rectangles while the fabric is empty), breaking ties toward regions
	// with fewer candidate placements.
	area := make([]int, len(regions))
	for i, cs := range cands {
		if len(cs) > 0 {
			area[i] = cs[0].Area() // cands are sorted smallest-area first
		}
	}
	order := make([]int, len(regions))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if area[ia] != area[ib] {
			return area[ia] > area[ib]
		}
		if len(cands[ia]) != len(cands[ib]) {
			return len(cands[ia]) < len(cands[ib])
		}
		return ia < ib
	})

	// Per-candidate multi-word column masks (fabrics may exceed 64
	// columns) and covered cells per kind, derived once per candidate from
	// two per-fabric prefix tables instead of column loops at every node:
	// colMask[x] holds the columns [0,x), kindCols[x] counts them per kind.
	width := f.Width()
	colMask := make([]uint64, (width+1)*words)
	kindCols := make([]resources.Vector, width+1)
	for x := 0; x < width; x++ {
		copy(colMask[(x+1)*words:(x+2)*words], colMask[x*words:(x+1)*words])
		colMask[(x+1)*words+x/64] |= 1 << (x % 64)
		kindCols[x+1] = kindCols[x]
		kindCols[x+1][f.Columns[x]]++
	}
	total := 0
	for _, cs := range cands {
		total += len(cs)
	}
	maskBuf := make([]uint64, total*words)
	coverBuf := make([]resources.Vector, total)
	masks := make([][]uint64, len(regions))
	covers := make([][]resources.Vector, len(regions))
	for i, cs := range cands {
		masks[i], maskBuf = maskBuf[:len(cs)*words], maskBuf[len(cs)*words:]
		covers[i], coverBuf = coverBuf[:len(cs)], coverBuf[len(cs):]
		for j, p := range cs {
			m := masks[i][j*words : (j+1)*words]
			hi, lo := colMask[p.X1*words:(p.X1+1)*words], colMask[p.X0*words:(p.X0+1)*words]
			for w := range m {
				m[w] = hi[w] &^ lo[w]
			}
			covers[i][j] = kindCols[p.X1].Sub(kindCols[p.X0]).Scale(p.Y1 - p.Y0)
		}
	}

	// Aggregate free-cell bound: a region needing res_k units of kind k
	// must cover at least ⌈res_k / unitsPerCell_k⌉ cells of that kind, so
	// whenever the cells still needed by the unplaced regions exceed the
	// free cells of some kind, the branch is dead. cellsNeeded is indexed
	// like order; suffixNeed[k] pre-aggregates from position k to the end.
	cellsNeeded := make([]resources.Vector, len(order))
	for k, region := range order {
		for kind, req := range regions[region] {
			if req == 0 {
				continue
			}
			per := f.UnitsPerCell[kind]
			cellsNeeded[k][kind] = (req + per - 1) / per
		}
	}
	suffixNeed := make([]resources.Vector, len(order)+1)
	for k := len(order) - 1; k >= 0; k-- {
		suffixNeed[k] = suffixNeed[k+1].Add(cellsNeeded[k])
	}
	freeCells := kindCols[width].Scale(f.Rows)

	occupied := make([][]uint64, f.Rows)
	for y := range occupied {
		occupied[y] = make([]uint64, words)
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
		for j, p := range cands[region] {
			res.Nodes++
			// Budget is charged per node, so a cancel or deadline lands
			// within microseconds of search; an aborted run reports
			// infeasible-unproven below.
			if opt.Budget.Charge(1) != nil {
				aborted = true
				return false
			}
			m := masks[region][j*words : (j+1)*words]
			clash := false
			for y := p.Y0; y < p.Y1 && !clash; y++ {
				for w, bits := range m {
					if occupied[y][w]&bits != 0 {
						clash = true
						break
					}
				}
			}
			if clash {
				continue
			}
			covered := covers[region][j]
			for y := p.Y0; y < p.Y1; y++ {
				for w, bits := range m {
					occupied[y][w] |= bits
				}
			}
			freeCells = freeCells.Sub(covered)
			chosen[region] = p
			if dfs(k + 1) {
				return true
			}
			freeCells = freeCells.Add(covered)
			for y := p.Y0; y < p.Y1; y++ {
				for w, bits := range m {
					occupied[y][w] &^= bits
				}
			}
			if aborted {
				return false
			}
		}
		return false
	}

	if dfs(0) {
		res.Feasible, res.Proven = true, true
		res.Placements = chosen
		return nil
	}
	res.Feasible = false
	res.Proven = !aborted
	return nil
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
