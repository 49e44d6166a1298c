package floorplan

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"
	"unsafe"

	"resched/internal/arch"
	"resched/internal/resources"
)

// Catalog is the placement data of one fabric, shared by every query on a
// fabric of the same content in the process: per column-need class of
// region requirements (see needKey), the class's placement footprint and
// its candidate placements in search order with their overlap tables. The
// data depends only on the fabric and the class, so it is built once, on
// first use, and never changes; a Planner, PA's capacity accounting and
// IS-k's timeline read the same entries from any goroutine. The footprint
// comes with the entry; the candidates, which only the floorplanner reads,
// are built on its first request.
//
// Catalogs are found by fabric content (rows, units per cell and the
// column sequence), not by pointer: frontends build a fresh Architecture
// for every request. What the process keeps is bounded. The entries of all
// catalogs share one byte budget, held in two generations: a generation
// that would pass half the budget is retired, the one before it dropped,
// and an entry found in the retired generation moves back to the current
// one. The catalogs themselves rotate the same way, by count.
type Catalog struct {
	// fab is a private copy of the fabric the catalog was made for.
	fab arch.Fabric
	// kindCols[x] counts the columns [0,x) per kind, so the cells a
	// placement covers are (kindCols[x1]-kindCols[x0])·h.
	kindCols []resources.Vector
}

// entry is one column-need class of a catalog. Its fields are fixed when
// it is stored, except set, which once fills exactly once.
type entry struct {
	// n is the number of placements of the class.
	n int
	// fp is the placement footprint of the class (see PlacementFootprint);
	// meaningless when n is 0.
	fp resources.Vector
	// bytes is what the entry costs with its candidate set built; the
	// budget charges it from the start.
	bytes int
	once  sync.Once
	set   candSet
}

// candSet is one class's candidate placements in search order and their
// overlap tables. It is backed by two allocations, the placements and the
// tables.
type candSet struct {
	cands []Placement
	// words is the bitset length of the candidate list.
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
}

const (
	// catalogBudget bounds the bytes of all catalog entries in the
	// process, both generations together. Table I's whole suite needs
	// about 1.2 MB; a ZC706 class takes up to about 130 KB.
	catalogBudget = 8 << 20
	// catalogFabrics bounds the catalogs of one generation.
	catalogFabrics = 8
	// entryOverhead is what an entry costs besides its two slices: the
	// entry itself and its map slot.
	entryOverhead = 128
)

// entryKey names one class of one catalog.
type entryKey struct {
	cat  *Catalog
	need resources.Vector
}

// store is the process-wide home of the catalogs and their entries. One
// mutex guards it; a hit holds it for one map lookup, and entries and
// their candidate sets are built outside it.
var store struct {
	mu sync.Mutex
	// fabrics and oldFabrics are the current and retired catalogs by
	// fabric key.
	fabrics, oldFabrics map[string]*Catalog
	// cur and prev are the current and retired entry generations, with
	// their bytes.
	cur, prev           map[entryKey]*entry
	curBytes, prevBytes int
	// builds counts the entries made since the process started.
	builds int
}

// CatalogOf returns the catalog of the fabric's content, making an empty
// one on first use. The catalog keeps its own copy of the fabric.
func CatalogOf(f *arch.Fabric) *Catalog {
	var buf [256]byte
	key := fabricKey(buf[:0], f)
	store.mu.Lock()
	defer store.mu.Unlock()
	c := store.fabrics[string(key)]
	if c != nil {
		return c
	}
	if c = store.oldFabrics[string(key)]; c != nil {
		delete(store.oldFabrics, string(key))
	} else {
		c = newCatalog(f)
	}
	if len(store.fabrics) >= catalogFabrics {
		store.oldFabrics, store.fabrics = store.fabrics, nil
	}
	if store.fabrics == nil {
		store.fabrics = make(map[string]*Catalog, catalogFabrics)
	}
	store.fabrics[string(key)] = c
	return c
}

// fabricKey appends the content key of f to buf: rows, units per cell,
// then the column kinds.
func fabricKey(buf []byte, f *arch.Fabric) []byte {
	buf = binary.AppendVarint(buf, int64(f.Rows))
	for _, u := range f.UnitsPerCell {
		buf = binary.AppendVarint(buf, int64(u))
	}
	for _, k := range f.Columns {
		buf = binary.AppendVarint(buf, int64(k))
	}
	return buf
}

func newCatalog(f *arch.Fabric) *Catalog {
	c := &Catalog{fab: *f}
	c.fab.Columns = slices.Clone(f.Columns)
	c.kindCols = make([]resources.Vector, f.Width()+1)
	for x, k := range f.Columns {
		c.kindCols[x+1] = c.kindCols[x]
		if k >= 0 && k < resources.NumKinds {
			c.kindCols[x+1][k]++
		}
	}
	return c
}

// Footprint is PlacementFootprint on the catalog's fabric.
func (c *Catalog) Footprint(req resources.Vector) resources.Vector {
	if e := c.lookup(c.needKey(req)); e.n > 0 {
		return e.fp
	}
	return req
}

// candidates returns the candidate set of a class key, building it on the
// class's first request; built reports that this call built it.
func (c *Catalog) candidates(need resources.Vector) (s candSet, built bool) {
	e := c.lookup(need)
	e.once.Do(func() {
		if e.n > 0 {
			e.set = buildCandSet(&c.fab, placements(&c.fab, need, e.n))
		}
		built = true
	})
	return e.set, built
}

// lookup returns the entry of a class key, making it on a miss.
func (c *Catalog) lookup(need resources.Vector) *entry {
	k := entryKey{c, need}
	store.mu.Lock()
	e := store.cur[k]
	if e == nil {
		if e = store.prev[k]; e != nil {
			delete(store.prev, k)
			store.prevBytes -= e.bytes
			insertEntry(k, e)
		}
	}
	store.mu.Unlock()
	if e != nil {
		return e
	}
	n, fp := spanStats(&c.fab, need)
	words := (n + 63) / 64
	e = &entry{n: n, fp: fp, bytes: entryOverhead +
		n*int(unsafe.Sizeof(Placement{})) + 8*tableWords(&c.fab, words)}
	store.mu.Lock()
	defer store.mu.Unlock()
	store.builds++
	if old := store.cur[k]; old != nil {
		return old // made concurrently: share the stored one
	}
	insertEntry(k, e)
	return e
}

// insertEntry adds e to the current generation, retiring it first when e
// would take it past half the budget. An entry above half the budget on
// its own is not kept. The caller holds the lock.
func insertEntry(k entryKey, e *entry) {
	const half = catalogBudget / 2
	if e.bytes > half {
		return
	}
	if store.curBytes+e.bytes > half {
		rotate()
	}
	if store.cur == nil {
		store.cur = make(map[entryKey]*entry)
	}
	store.cur[k] = e
	store.curBytes += e.bytes
}

// rotate retires the current entry generation and drops the retired one.
// The caller holds the lock.
func rotate() {
	store.prev, store.prevBytes = store.cur, store.curBytes
	store.cur, store.curBytes = nil, 0
}

// needKey returns the key of req's column-need class: per kind k, the
// largest requirement min_h ⌈req_k/(units_k·h)⌉·units_k·h with the same
// column need ⌈req_k/(units_k·h)⌉ at every height h, or req_k itself when
// it is not positive or the fabric has no units of kind k. Enumerate and
// the footprint depend on req only through those needs, so a class shares
// its entry; the DFS still reads the raw requirements.
func (c *Catalog) needKey(req resources.Vector) resources.Vector {
	key := req
	for k, r := range req {
		u := c.fab.UnitsPerCell[k]
		if r <= 0 || u <= 0 {
			continue
		}
		key[k] = (r + u - 1) / u * u // h = 1
		for h := 2; h <= c.fab.Rows; h++ {
			per := u * h
			key[k] = min(key[k], (r+per-1)/per*per)
		}
	}
	return key
}

// tableWords is the length of the four overlap tables of a candidate set
// whose bitsets take words words.
func tableWords(f *arch.Fabric, words int) int {
	return 2 * (f.Width() + 1 + f.Rows + 1) * words
}

// buildCandSet sorts cands into search order and derives their overlap
// tables.
func buildCandSet(f *arch.Fabric, cands []Placement) candSet {
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
	w, r := f.Width(), f.Rows
	words := (len(cands) + 63) / 64
	tabs := make([]uint64, tableWords(f, words))
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
