package floorplan

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"resched/internal/arch"
	"resched/internal/obs"
	"resched/internal/resources"
)

// Planner answers floorplanning queries on one fabric and keeps the
// candidate data of each region requirement between its own calls: the
// sorted placements, their overlap tables and (through a per-fabric column
// prefix) their covered cells. A scheduler that floorplans repeatedly —
// PA across its shrink retries, a PA-R worker across its improvements,
// IS-k across its attempts — holds one Planner and stops re-enumerating
// and re-sorting the requirements its calls share.
//
// The memo is keyed by column-need class (see needKey): requirements that
// need the same number of columns of each kind at every height share one
// candidate set.
//
// The memo holds two generations: the sets used by the current call and by
// the previous one that got as far as looking up candidates. Each such call
// drops the rest when it starts, so memory follows the size of two calls,
// not the history of the run.
//
// A Planner is not safe for concurrent use; give each goroutine its own.
// Its answers are exactly those of Solve, which is a fresh Planner's.
type Planner struct {
	f    *arch.Fabric
	sets map[resources.Vector]candSet
	gen  int // the call in progress, counted from 1
	// kindCols[x] counts the columns [0,x) per kind, so the cells a
	// placement covers are (kindCols[x1]-kindCols[x0])·h. Built on the
	// first call, after the fabric validated.
	kindCols []resources.Vector
	// clash is the DFS scratch: one clash bitset per search depth.
	clash []uint64
}

// NewPlanner returns an empty planner for the fabric.
func NewPlanner(f *arch.Fabric) *Planner {
	return &Planner{f: f}
}

// candSet is one requirement's candidate placements in search order and
// their overlap tables. It is backed by two allocations, the placements
// and the tables.
type candSet struct {
	cands []Placement
	// words is the bitset length of the full candidate list; capped views
	// read a prefix of each row.
	words int
	// tabs holds four prefix-bitset tables, words words per row; bit j of
	// a row stands for cands[j]:
	//   rows [0, W]           X0 <  x    (x0Lt)
	//   rows [W+1, 2W+1]      X1 >  x    (x1Gt)
	//   then R+1 rows         Y0 <  y    (y0Lt)
	//   then R+1 rows         Y1 >  y    (y1Gt)
	// with W the fabric width and R its row count. The candidates that
	// overlap a rectangle q are x0Lt[q.X1] & x1Gt[q.X0] & y0Lt[q.Y1] &
	// y1Gt[q.Y0].
	tabs []uint64
	used int // the last call that used the set
}

// Solve searches for a disjoint placement of all regions on the planner's
// fabric, as the package-level Solve does. Regions with zero requirements
// are rejected.
func (p *Planner) Solve(regions []resources.Vector, opt Options) (*Result, error) {
	sp := opt.Trace.Start("floorplan.solve",
		obs.Str("method", opt.Method.String()), obs.Int("regions", int64(len(regions))))
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
	if p.kindCols == nil {
		p.kindCols = make([]resources.Vector, f.Width()+1)
		for x, k := range f.Columns {
			p.kindCols[x+1] = p.kindCols[x]
			p.kindCols[x+1][k]++
		}
	}
	if p.sets == nil {
		p.sets = make(map[resources.Vector]candSet, len(regions))
	}
	p.gen++
	for req, s := range p.sets {
		if s.used < p.gen-1 {
			delete(p.sets, req)
		}
	}

	limit := opt.MaxCandidates
	if limit == 0 && opt.Method == MILP {
		limit = 40
	}
	sets := make([]candSet, len(regions))
	capped, fits := false, true
	var built, reused int64
	for i, r := range regions {
		key := p.needKey(r)
		s, ok := p.sets[key]
		if ok {
			reused++
		} else {
			s = p.build(key)
			built++
		}
		s.used = p.gen
		p.sets[key] = s
		if len(s.cands) == 0 {
			fits = false
			break
		}
		if limit > 0 && len(s.cands) > limit {
			s.cands = s.cands[:limit]
			capped = true
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

	var err error
	switch opt.Method {
	case Backtracking:
		p.solveBacktracking(regions, sets, opt, res)
	case MILP:
		cands := make([][]Placement, len(sets))
		for i, s := range sets {
			cands[i] = s.cands
		}
		err = solveMILP(f, regions, cands, opt, res)
	default:
		return nil, fmt.Errorf("floorplan: unknown method %v", opt.Method)
	}
	if err != nil {
		return nil, err
	}
	if !res.Feasible && capped {
		res.Proven = false
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// needKey returns the memo key of req's column-need class: per kind k, the
// largest requirement min_h ⌈req_k/(units_k·h)⌉·units_k·h with the same
// column need ⌈req_k/(units_k·h)⌉ at every height h, or req_k itself when
// it is not positive or the fabric has no units of kind k. Enumerate
// depends on req only through those needs, so a class shares its
// candidate set and tables; the DFS still reads the raw requirements.
func (p *Planner) needKey(req resources.Vector) resources.Vector {
	key := req
	for k, r := range req {
		u := p.f.UnitsPerCell[k]
		if r <= 0 || u <= 0 {
			continue
		}
		key[k] = (r + u - 1) / u * u // h = 1
		for h := 2; h <= p.f.Rows; h++ {
			per := u * h
			key[k] = min(key[k], (r+per-1)/per*per)
		}
	}
	return key
}

// build enumerates req's placements in search order and derives their
// overlap tables.
func (p *Planner) build(req resources.Vector) candSet {
	cands := Enumerate(p.f, req)
	if len(cands) == 0 {
		return candSet{}
	}
	// Prefer small-area placements, then pack toward the bottom-left
	// corner: compact prefixes leave the largest contiguous free space
	// for the remaining regions.
	// slices.SortFunc runs the same pdqsort as sort.Slice, so equal
	// keys keep the order they always had.
	slices.SortFunc(cands, func(pa, pb Placement) int {
		if c := cmp.Compare(pa.Area(), pb.Area()); c != 0 {
			return c
		}
		if c := cmp.Compare(pa.X0, pb.X0); c != 0 {
			return c
		}
		return cmp.Compare(pa.Y0, pb.Y0)
	})
	w, r := p.f.Width(), p.f.Rows
	words := (len(cands) + 63) / 64
	tabs := make([]uint64, 2*(w+1+r+1)*words)
	x0Lt, x1Gt, y0Lt, y1Gt := 0, w+1, 2*(w+1), 2*(w+1)+r+1 // first rows
	// Mark each candidate in the one row where its predicate starts to
	// hold, then sweep: a "< v" table accumulates upward, a "> v" table
	// downward.
	for j, c := range cands {
		bit, word := uint64(1)<<(j%64), j/64
		tabs[(x0Lt+c.X0+1)*words+word] |= bit
		tabs[(x1Gt+c.X1-1)*words+word] |= bit
		tabs[(y0Lt+c.Y0+1)*words+word] |= bit
		tabs[(y1Gt+c.Y1-1)*words+word] |= bit
	}
	up := func(first, last int) {
		for i := (first + 1) * words; i < (last+1)*words; i++ {
			tabs[i] |= tabs[i-words]
		}
	}
	down := func(first, last int) {
		for i := last*words - 1; i >= first*words; i-- {
			tabs[i] |= tabs[i+words]
		}
	}
	up(x0Lt, x0Lt+w)
	down(x1Gt, x1Gt+w)
	up(y0Lt, y0Lt+r)
	down(y1Gt, y1Gt+r)
	return candSet{cands: cands, words: words, tabs: tabs}
}
