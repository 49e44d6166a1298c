package floorplan

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/obs"
	"resched/internal/resources"
)

// referenceEnumerate is Enumerate as it was before the span scan counted
// columns: a two-pointer scan per height that accumulates cell resources
// and scales them by the height at every step.
func referenceEnumerate(f *arch.Fabric, req resources.Vector) []Placement {
	var out []Placement
	if req.Zero() {
		return out
	}
	w := f.Width()
	for h := 1; h <= f.Rows; h++ {
		var acc resources.Vector
		x1 := 0
		for x0 := 0; x0 < w; x0++ {
			if x1 < x0 {
				x1 = x0
				acc = resources.Vector{}
			}
			for x1 < w && !req.Fits(acc.Scale(h)) {
				acc = acc.Add(f.CellResources(x1))
				x1++
			}
			if !req.Fits(acc.Scale(h)) {
				break
			}
			for y0 := 0; y0+h <= f.Rows; y0++ {
				out = append(out, Placement{X0: x0, X1: x1, Y0: y0, Y1: y0 + h})
			}
			acc = acc.Sub(f.CellResources(x0))
		}
	}
	return out
}

// referenceFootprint is the Enumerate-based PlacementFootprint the span
// scan replaced: the first minimal-area placement in Enumerate order.
func referenceFootprint(f *arch.Fabric, req resources.Vector) resources.Vector {
	best := req
	bestArea := -1
	for _, p := range referenceEnumerate(f, req) {
		if bestArea < 0 || p.Area() < bestArea {
			bestArea = p.Area()
			best = f.RectResources(p.X0, p.X1, p.Y0, p.Y1)
		}
	}
	return best
}

// referenceSolve is the backtracking floorplanner as it was before the
// prefix tables and the clash bitsets: candidate preparation as in solve,
// then a DFS that tests every candidate on its own, charging the budget one
// node at a time, rebuilding the candidate's column mask and covered cells
// with column loops and testing the mask against one occupancy bitmask per
// clock-region row. It is the oracle the production search must match
// exactly. clashAbort reports that the budget aborted the search on a
// candidate that clashed, i.e. inside a run the production search skips in
// bulk.
func referenceSolve(f *arch.Fabric, regions []resources.Vector, opt Options) (res *Result, clashAbort bool) {
	res = &Result{}
	if len(regions) == 0 {
		res.Feasible, res.Proven = true, true
		return res, false
	}
	var total resources.Vector
	for _, r := range regions {
		total = total.Add(r)
	}
	if !total.Fits(f.Capacity()) {
		res.Proven = true
		return res, false
	}
	cands := make([][]Placement, len(regions))
	capped := false
	for i, r := range regions {
		cands[i] = referenceEnumerate(f, r)
		if len(cands[i]) == 0 {
			res.Proven = true
			return res, false
		}
		sort.Slice(cands[i], func(a, b int) bool {
			pa, pb := cands[i][a], cands[i][b]
			if pa.Area() != pb.Area() {
				return pa.Area() < pb.Area()
			}
			if pa.X0 != pb.X0 {
				return pa.X0 < pb.X0
			}
			return pa.Y0 < pb.Y0
		})
		if opt.MaxCandidates > 0 && len(cands[i]) > opt.MaxCandidates {
			cands[i] = cands[i][:opt.MaxCandidates]
			capped = true
		}
	}

	words := (f.Width() + 63) / 64
	maxNodes := opt.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	area := make([]int, len(regions))
	for i, cs := range cands {
		area[i] = cs[0].Area()
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
	maskBuf := make([]uint64, words*len(regions))
	mask := func(k int, p Placement) []uint64 {
		m := maskBuf[k*words : (k+1)*words]
		for w := range m {
			m[w] = 0
		}
		for x := p.X0; x < p.X1; x++ {
			m[x/64] |= 1 << (x % 64)
		}
		return m
	}
	suffixNeed := make([]resources.Vector, len(order)+1)
	for k := len(order) - 1; k >= 0; k-- {
		var need resources.Vector
		for kind, req := range regions[order[k]] {
			per := f.UnitsPerCell[kind]
			if req > 0 {
				need[kind] = (req + per - 1) / per
			}
		}
		suffixNeed[k] = suffixNeed[k+1].Add(need)
	}
	var freeCells resources.Vector
	for x := 0; x < f.Width(); x++ {
		freeCells[f.Columns[x]] += f.Rows
	}
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
		for _, p := range cands[region] {
			res.Nodes++
			m := mask(k, p)
			clash := false
			for y := p.Y0; y < p.Y1 && !clash; y++ {
				for w, bits := range m {
					if occupied[y][w]&bits != 0 {
						clash = true
						break
					}
				}
			}
			if opt.Budget.Charge(1) != nil {
				aborted, clashAbort = true, clash
				return false
			}
			if clash {
				continue
			}
			var covered resources.Vector
			for x := p.X0; x < p.X1; x++ {
				covered[f.Columns[x]] += p.Y1 - p.Y0
			}
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
		return res, false
	}
	res.Proven = !aborted && !capped
	return res, clashAbort
}

// equivFabrics are the fabrics the equivalence properties run on: the three
// device presets and a 120-column fabric whose masks span two words.
func equivFabrics(t *testing.T) []namedFabric {
	t.Helper()
	wide := arch.NewColumnFabric(4, []arch.ColumnSpec{
		{Kind: resources.CLB, Count: 30}, {Kind: resources.BRAM, Count: 2},
		{Kind: resources.CLB, Count: 30}, {Kind: resources.DSP, Count: 3},
		{Kind: resources.CLB, Count: 25}, {Kind: resources.BRAM, Count: 1},
		{Kind: resources.CLB, Count: 27}, {Kind: resources.DSP, Count: 2},
	})
	if w := wide.Width(); w <= 64 {
		t.Fatalf("wide fabric has %d columns, want > 64", w)
	}
	return []namedFabric{
		{"zedboard", arch.ZedBoard().Fabric},
		{"microzed", arch.MicroZed7010().Fabric},
		{"zc706", arch.ZC706_7045().Fabric},
		{"wide", wide},
	}
}

type namedFabric struct {
	name string
	f    *arch.Fabric
}

// randomRequirement draws a region requirement of up to frac of the
// fabric's capacity per kind, with each non-CLB kind present half the time.
func randomRequirement(rng *rand.Rand, capacity resources.Vector, frac float64) resources.Vector {
	var v resources.Vector
	for k := range v {
		if k != int(resources.CLB) && rng.Intn(2) == 0 {
			continue
		}
		if limit := int(float64(capacity[k]) * frac); limit > 0 {
			v[k] = 1 + rng.Intn(limit)
		}
	}
	if v.Zero() {
		v[resources.CLB] = 1
	}
	return v
}

// Property: the prefix-table search returns exactly the reference search's
// Result — verdict, proof status, placements and node count — on random
// region sets, including node-capped and candidate-capped runs.
func TestBacktrackingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, nf := range equivFabrics(t) {
		name, f := nf.name, nf.f
		capacity := f.Capacity()
		for trial := 0; trial < 60; trial++ {
			// Total demand from 40% to 120% of the device mixes easy,
			// tight, node-capped and infeasible instances.
			regions := make([]resources.Vector, 1+rng.Intn(7))
			frac := (0.4 + 0.8*rng.Float64()) / float64(len(regions))
			for i := range regions {
				regions[i] = randomRequirement(rng, capacity, 2*frac)
			}
			opt := Options{MaxNodes: 5000}
			if trial%4 == 3 {
				opt.MaxCandidates = 1 + rng.Intn(20)
			}
			got, err := Solve(f, regions, opt)
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			got.Elapsed = 0
			want, _ := referenceSolve(f, regions, opt)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d regions %v:\n got %+v\nwant %+v", name, trial, regions, got, want)
			}
		}
	}
}

// Property: one Planner reused across a sequence of calls answers every
// call exactly as the reference search and a fresh Solve do: verdict, proof
// status, placements and node count. Requirements come from a small pool
// that drifts, so within a sequence they repeat inside a call, carry over
// from the previous call, drop out of the memo after two calls without them
// and come back. Calls mix candidate caps (the search must stop at the
// capped view), node caps and budget caps small enough to abort inside a
// skipped run, and the MILP method.
func TestPlannerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var clashAborts, carried, returned, evicted int
	for _, nf := range equivFabrics(t) {
		name, f := nf.name, nf.f
		capacity := f.Capacity()
		pool := make([]resources.Vector, 12)
		for i := range pool {
			pool[i] = randomRequirement(rng, capacity, 0.3)
		}
		p := NewPlanner(f)
		seen := map[resources.Vector]bool{}
		for call := 0; call < 80; call++ {
			regions := make([]resources.Vector, 1+rng.Intn(6))
			base := call / 4
			for i := range regions {
				regions[i] = pool[(base+rng.Intn(4))%len(pool)]
			}
			var opt Options
			var budgetCap int64
			switch call % 5 {
			case 0:
				opt.MaxNodes = 5000
			case 1:
				opt.MaxNodes, opt.MaxCandidates = 5000, 1+rng.Intn(20)
			case 2:
				opt.MaxNodes = 1 + rng.Intn(300)
			case 3:
				budgetCap = 1 + rng.Int63n(400)
			case 4:
				if len(regions) <= 3 {
					opt.Method, opt.MaxCandidates = MILP, 1+rng.Intn(8)
				} else {
					opt.MaxNodes = 5000
				}
			}
			// Each search gets its own budget: they must all see the same cap.
			withBudget := func() Options {
				o := opt
				if budgetCap > 0 {
					o.Budget = budget.New(budget.Options{MaxNodes: budgetCap})
				}
				return o
			}
			before := map[resources.Vector]bool{}
			for req := range p.sets {
				before[req] = true
			}
			tr := obs.New()
			o := withBudget()
			o.Trace = tr
			got, err := p.Solve(regions, o)
			if err != nil {
				t.Fatalf("%s call %d: %v", name, call, err)
			}
			fresh, err := Solve(f, regions, withBudget())
			if err != nil {
				t.Fatalf("%s call %d: fresh Solve: %v", name, call, err)
			}
			got.Elapsed, fresh.Elapsed = 0, 0
			if !reflect.DeepEqual(got, fresh) {
				t.Fatalf("%s call %d regions %v opt %+v:\nplanner %+v\n  fresh %+v", name, call, regions, opt, got, fresh)
			}
			if opt.Method == Backtracking {
				want, clashAbort := referenceSolve(f, regions, withBudget())
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s call %d regions %v opt %+v budget cap %d:\nplanner   %+v\nreference %+v",
						name, call, regions, opt, budgetCap, got, want)
				}
				if clashAbort {
					clashAborts++
				}
			}

			// The memo keeps the sets of this call and the previous one.
			for req, s := range p.sets {
				if s.used < p.gen-1 {
					t.Fatalf("%s call %d: set %v last used by call %d survives call %d", name, call, req, s.used, p.gen)
				}
			}
			m := tr.Snapshot()
			if b, r := m.Counters["floorplan.candsets_built"], m.Counters["floorplan.candsets_reused"]; b+r > int64(len(regions)) {
				t.Fatalf("%s call %d: %d sets built and %d reused for %d regions", name, call, b, r, len(regions))
			}
			for _, req := range regions {
				switch {
				case before[req]:
					carried++
				case seen[req]:
					returned++
				}
				seen[req] = true
			}
			for req := range before {
				if _, ok := p.sets[req]; !ok {
					evicted++
				}
			}
		}
	}
	if clashAborts == 0 || carried == 0 || returned == 0 || evicted == 0 {
		t.Fatalf("sequences too tame: %d aborts inside a skipped run, %d carried, %d returning, %d evicted requirements",
			clashAborts, carried, returned, evicted)
	}
}

// A budget cap that lands inside a run of clashing candidates, which the
// search charges in one ChargeRun, aborts at the node and with the node
// count of the per-node reference. Caps up to the solving node count are
// tried on the instance of TestBudgetMidSearchNotProven: every one of the
// first 200, then every 29th.
func TestBudgetCapInsideSkippedRun(t *testing.T) {
	f := zynq()
	var regions []resources.Vector
	for i := 0; i < 30; i++ {
		regions = append(regions, resources.Vec(300, 0, 0))
	}
	full, err := Solve(f, regions, Options{})
	if err != nil || !full.Feasible {
		t.Fatalf("reference instance: %+v, %v", full, err)
	}
	clashAborts := 0
	for c := int64(1); c <= int64(full.Nodes); c++ {
		if c > 200 {
			c += 28
		}
		got, err := Solve(f, regions, Options{Budget: budget.New(budget.Options{MaxNodes: c})})
		if err != nil {
			t.Fatal(err)
		}
		got.Elapsed = 0
		want, clashAbort := referenceSolve(f, regions, Options{Budget: budget.New(budget.Options{MaxNodes: c})})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cap %d:\n got %+v\nwant %+v", c, got, want)
		}
		if clashAbort {
			clashAborts++
		}
	}
	if clashAborts == 0 {
		t.Fatalf("no cap of 1..%d landed inside a skipped run", full.Nodes)
	}
}

// Property: the column-counting Enumerate returns exactly the reference
// scan's placements, in the same order, for random requirements, including
// ones that do not fit the fabric.
func TestEnumerateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, nf := range equivFabrics(t) {
		name, f := nf.name, nf.f
		capacity := f.Capacity()
		for trial := 0; trial < 300; trial++ {
			req := randomRequirement(rng, capacity, 1.1)
			got, want := Enumerate(f, req), referenceEnumerate(f, req)
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: Enumerate(%v) gives %d placements, reference %d (or a different order)",
					name, trial, req, len(got), len(want))
			}
		}
	}
}

// Property: the span-scan PlacementFootprint equals the Enumerate-based one
// for random requirements, including ones that do not fit the fabric.
func TestPlacementFootprintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, nf := range equivFabrics(t) {
		name, f := nf.name, nf.f
		capacity := f.Capacity()
		for trial := 0; trial < 300; trial++ {
			req := randomRequirement(rng, capacity, 1.1)
			if got, want := PlacementFootprint(f, req), referenceFootprint(f, req); got != want {
				t.Fatalf("%s trial %d: footprint of %v = %v, want %v", name, trial, req, got, want)
			}
		}
	}
}
