package floorplan

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/resources"
	"resched/internal/taskgraph"
)

// resetCatalog empties the process-wide catalog: no fabric, no entry.
func resetCatalog() {
	store.mu.Lock()
	defer store.mu.Unlock()
	store.fabrics, store.oldFabrics = nil, nil
	store.cur, store.prev = nil, nil
	store.curBytes, store.prevBytes = 0, 0
}

// rotateCatalog retires the current entry generation as an overfull one
// would be.
func rotateCatalog() {
	store.mu.Lock()
	defer store.mu.Unlock()
	rotate()
}

// catalogBytes returns the bytes the catalog's entries hold.
func catalogBytes() int {
	store.mu.Lock()
	defer store.mu.Unlock()
	return store.curBytes + store.prevBytes
}

// catalogBuilds returns the number of entries built so far.
func catalogBuilds() int {
	store.mu.Lock()
	defer store.mu.Unlock()
	return store.builds
}

// catalogHolds reports whether the class key need of c is in the catalog.
func catalogHolds(c *Catalog, need resources.Vector) bool {
	store.mu.Lock()
	defer store.mu.Unlock()
	k := entryKey{c, need}
	return store.cur[k] != nil || store.prev[k] != nil
}

// checkCandidates requires e to be exactly what a fresh Enumerate, the
// reference sort and brute-force overlap tables give for req.
func checkCandidates(t *testing.T, name string, f *arch.Fabric, req resources.Vector, e candSet) {
	t.Helper()
	want := Enumerate(f, req)
	sort.Slice(want, func(a, b int) bool {
		pa, pb := want[a], want[b]
		if pa.Area() != pb.Area() {
			return pa.Area() < pb.Area()
		}
		if pa.X0 != pb.X0 {
			return pa.X0 < pb.X0
		}
		return pa.Y0 < pb.Y0
	})
	if len(want) == 0 {
		if len(e.cands) != 0 || len(e.tabs) != 0 {
			t.Fatalf("%s: %v fits nowhere, its entry has %d candidates", name, req, len(e.cands))
		}
		return
	}
	if !reflect.DeepEqual(e.cands, want) {
		t.Fatalf("%s: entry of %v has %d candidates, fresh sorted Enumerate %d (or another order)",
			name, req, len(e.cands), len(want))
	}
	w, r := f.Width(), f.Rows
	words := (len(want) + 63) / 64
	if e.words != words || len(e.tabs) != 2*(w+1+r+1)*words {
		t.Fatalf("%s: entry of %v has %d words and %d table words", name, req, e.words, len(e.tabs))
	}
	row := func(first, i int) []uint64 { return e.tabs[(first+i)*words : (first+i+1)*words] }
	for j, p := range want {
		bit := func(r []uint64) bool { return r[j/64]>>(j%64)&1 == 1 }
		for x := 0; x <= w; x++ {
			if bit(row(0, x)) != (p.X0 < x) || bit(row(w+1, x)) != (p.X1 > x) {
				t.Fatalf("%s: %v candidate %v: wrong column table bit at x=%d", name, req, p, x)
			}
		}
		for y := 0; y <= r; y++ {
			if bit(row(2*(w+1), y)) != (p.Y0 < y) || bit(row(2*(w+1)+r+1, y)) != (p.Y1 > y) {
				t.Fatalf("%s: %v candidate %v: wrong row table bit at y=%d", name, req, p, y)
			}
		}
	}
	for last := words - 1; last < len(e.tabs); last += words {
		if pad := e.tabs[last] >> (len(want) % 64); len(want)%64 != 0 && pad != 0 {
			t.Fatalf("%s: %v: padding bits set in table word %d", name, req, last)
		}
	}
}

// checkCatalog requires the catalog footprint of req to equal the
// Enumerate-based reference, and the candidate set of its class to be a
// fresh build for req.
func checkCatalog(t *testing.T, name string, c *Catalog, req resources.Vector) {
	t.Helper()
	f := &c.fab
	if got, want := c.Footprint(req), referenceFootprint(f, req); got != want {
		t.Fatalf("%s: footprint of %v = %v, reference %v", name, req, got, want)
	}
	if got := PlacementFootprint(f, req); got != c.Footprint(req) {
		t.Fatalf("%s: PlacementFootprint(%v) = %v, catalog %v", name, req, got, c.Footprint(req))
	}
	s, _ := c.candidates(c.needKey(req))
	checkCandidates(t, name, f, req, s)
}

// A catalog is found by fabric content: a fresh copy of a preset shares
// its catalog, a changed fabric does not, and mutating the fabric after
// the lookup leaves the catalog's answers alone.
func TestCatalogKeyedByContent(t *testing.T) {
	a, b := arch.ZedBoard().Fabric, arch.ZedBoard().Fabric
	if CatalogOf(a) != CatalogOf(b) {
		t.Fatal("two ZedBoard fabrics got different catalogs")
	}
	c := CatalogOf(a)
	for _, mutate := range []func(f *arch.Fabric){
		func(f *arch.Fabric) { f.Rows++ },
		func(f *arch.Fabric) { f.UnitsPerCell[resources.DSP]++ },
		func(f *arch.Fabric) {
			i := slices.IndexFunc(f.Columns, func(k resources.Kind) bool { return k != resources.CLB })
			f.Columns[i-1], f.Columns[i] = f.Columns[i], f.Columns[i-1]
		},
		func(f *arch.Fabric) { f.Columns = f.Columns[:len(f.Columns)-1] },
	} {
		g := arch.ZedBoard().Fabric
		mutate(g)
		if CatalogOf(g) == c {
			t.Fatalf("changed fabric %v shares the ZedBoard catalog", g)
		}
	}
	req := resources.Vec(450, 0, 20)
	want := c.Footprint(req)
	a.Columns[0], a.Columns[len(a.Columns)-1] = resources.DSP, resources.DSP
	if got := c.Footprint(req); got != want {
		t.Fatalf("footprint moved with the caller's fabric: %v, was %v", got, want)
	}
}

// Overfilling the catalog keeps its bytes within the budget, evicts, and
// changes no answer: footprints and Solve results after the churn equal
// those before it. Too many fabrics rotate out the same way.
func TestCatalogBound(t *testing.T) {
	f := arch.ZC706_7045().Fabric
	c := CatalogOf(f)
	rng := rand.New(rand.NewSource(41))
	capacity := f.Capacity()
	probe := make([]resources.Vector, 6)
	for i := range probe {
		probe[i] = randomRequirement(rng, capacity, 0.15)
	}
	wantFP := make([]resources.Vector, len(probe))
	for i, req := range probe {
		wantFP[i] = c.Footprint(req)
	}
	want, err := Solve(f, probe, Options{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	want.Elapsed = 0

	builds, held := catalogBuilds(), 0
	for i := 0; catalogBuilds()-builds < 3*catalogBudget/(64<<10); i++ {
		c.lookup(c.needKey(randomRequirement(rng, capacity, 0.4)))
		if b := catalogBytes(); b > catalogBudget {
			t.Fatalf("after %d lookups the catalog holds %d bytes, budget %d", i, b, catalogBudget)
		}
		held = max(held, catalogBytes())
	}
	if held < catalogBudget/2 {
		t.Fatalf("the overfill peaked at %d bytes, below half the budget", held)
	}
	evicted := 0
	for _, req := range probe {
		if !catalogHolds(c, c.needKey(req)) {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("the overfill evicted none of the probe classes")
	}
	for i, req := range probe {
		if got := c.Footprint(req); got != wantFP[i] {
			t.Fatalf("footprint of %v after eviction = %v, was %v", req, got, wantFP[i])
		}
	}
	got, err := Solve(f, probe, Options{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	got.Elapsed = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Solve after eviction:\n got %+v\nwant %+v", got, want)
	}

	for i := 0; i < 3*catalogFabrics; i++ {
		a, err := arch.ScaledZedBoard(1 + float64(i)/8)
		if err != nil {
			t.Fatal(err)
		}
		CatalogOf(a.Fabric)
		store.mu.Lock()
		n := len(store.fabrics) + len(store.oldFabrics)
		store.mu.Unlock()
		if n > 2*catalogFabrics {
			t.Fatalf("%d catalogs held, bound %d", n, 2*catalogFabrics)
		}
	}
}

// Concurrent Planners on one cold catalog, each solving the same query
// sequence over shared classes, answer exactly as one Planner does alone;
// every class is built once per cold catalog. Meant for -race.
func TestCatalogConcurrentPlanners(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := arch.ZedBoard().Fabric
	capacity := f.Capacity()
	pool := make([]resources.Vector, 10)
	for i := range pool {
		pool[i] = randomRequirement(rng, capacity, 0.25)
	}
	queries := make([][]resources.Vector, 24)
	for i := range queries {
		q := make([]resources.Vector, 1+rng.Intn(5))
		for j := range q {
			q[j] = pool[rng.Intn(len(pool))]
		}
		queries[i] = q
	}
	solveAll := func() []*Result {
		p := NewPlanner(f)
		out := make([]*Result, len(queries))
		for i, q := range queries {
			r, err := p.Solve(q, Options{MaxNodes: 3000})
			if err != nil {
				t.Error(err)
				return nil
			}
			r.Elapsed = 0
			out[i] = r
		}
		return out
	}
	resetCatalog()
	before := catalogBuilds()
	want := solveAll()
	classes := catalogBuilds() - before
	resetCatalog()
	before = catalogBuilds()
	const workers = 4
	got := make([][]*Result, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = solveAll()
		}()
	}
	wg.Wait()
	for w, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("planner %d of %d answered differently from a lone planner", w, workers)
		}
	}
	// Racing misses may build a class twice, never more than once per
	// goroutine.
	if n := catalogBuilds() - before; n < classes || n > workers*classes {
		t.Fatalf("%d builds for %d classes and %d planners", n, classes, workers)
	}
}

// BenchmarkPlacementCatalogCold measures the catalog's cold path: from an
// empty catalog, build every column-need class of the hardware
// implementations of Suite(2016) on the ZedBoard, candidate sets included. Those are the classes
// PA's footprint and floorplan queries use over the suite, 89 of them;
// before the catalog every solve paid for its own share of these builds.
func BenchmarkPlacementCatalogCold(b *testing.B) {
	suite, err := benchgen.Suite(2016)
	if err != nil {
		b.Fatal(err)
	}
	f := arch.ZedBoard().Fabric
	var reqs []resources.Vector
	seen := map[resources.Vector]bool{}
	c := CatalogOf(f)
	for _, e := range suite {
		for _, task := range e.Graph.Tasks {
			for _, im := range task.Impls {
				if key := c.needKey(im.Res); im.Kind == taskgraph.HW && !seen[key] {
					seen[key] = true
					reqs = append(reqs, im.Res)
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetCatalog()
		c := CatalogOf(f)
		for _, req := range reqs {
			c.candidates(c.needKey(req))
		}
	}
	b.ReportMetric(float64(len(reqs)), "classes")
}
