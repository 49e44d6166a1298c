// Package schedcache is the content-addressed schedule cache: a
// concurrency-safe, size-bounded LRU keyed on a canonical digest of the
// solve request (task graph, architecture, solver name and the solver
// options that influence its output). An identical request returns the
// stored solve.Result in O(hash) without running the solver; a near-miss —
// a request whose instance differs from a cached neighbor by a small
// task/edge delta — warm-starts a fresh solve by reusing the cached
// floorplan as PA's phase-8 starting point and seeding PA-R's incumbent
// with the cached schedule.
//
// Soundness rests on two properties. First, every cacheable solver is a
// pure function of its key: the key encodes exactly the option subset the
// solver reads (key.go), requests with armed fault injectors or external
// warm-start inputs bypass the cache, and results are stored only when the
// request's budget never fired (post-solve Budget.Check() == nil — a clean
// budget after a successful solve proves the budget could not have
// influenced the run). Second, warm starts never change feasibility
// semantics: a floorplan hint is verified against the run's regions before
// use and discarded otherwise, and an initial incumbent only raises the
// improvement bar of a search over the *same* instance — both leave the
// solver a pure function of (request, warm context).
//
// Results cross the cache boundary by deep copy in both directions
// (cloneResult), so callers can mutate what they receive and cached
// entries never leak solver-internal state; in particular nothing
// arena-backed is ever stored (the arenaescape invariant: solver results
// are already arena-free, and the cache clones even those).
package schedcache

import (
	"container/list"
	"sync"

	"resched/internal/solve"
)

// defaultCapacity bounds the cache when the caller passes no size.
const defaultCapacity = 256

// Cache is the LRU store. The zero value is not usable; construct with New.
// All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	// warmDelta overrides the near-miss similarity threshold when > 0;
	// 0 selects the size-relative default (see threshold).
	warmDelta int
	entries   map[Digest]*list.Element
	order     *list.List // front = most recently used; values are *entry

	hits, misses, warm, stores, evictions int64
}

// entry is one cached solve keyed by its full digest, carrying the
// instance and architecture digests plus the similarity signature the
// warm-start probes match against.
type entry struct {
	key      Digest
	instance Digest
	arch     Digest
	sig      *Signature
	res      *solve.Result // private clone; never handed out directly
}

// New builds a cache bounded to capacity entries (≤ 0 selects the default
// of 256).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[Digest]*list.Element),
		order:    list.New(),
	}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Entries    int
	Hits       int64
	Misses     int64
	WarmStarts int64
	Stores     int64
	Evictions  int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:    c.order.Len(),
		Hits:       c.hits,
		Misses:     c.misses,
		WarmStarts: c.warm,
		Stores:     c.stores,
		Evictions:  c.evictions,
	}
}

// threshold is the near-miss acceptance bound for a request of the given
// signature size: at most max(2, size/10) multiset edits — tight enough
// that a hint from the neighbor still has a real chance to verify, loose
// enough to catch single-task perturbations on small graphs (delta 2: one
// hash out, one in).
func (c *Cache) threshold(size int) int {
	if c.warmDelta > 0 {
		return c.warmDelta
	}
	t := size / 10
	if t < 2 {
		t = 2
	}
	return t
}

// lookup returns the entry stored under the full key, bumping its recency.
// It bumps the hit counter on success and the miss counter otherwise, so
// the Stats ratios match the decorator's observed behavior exactly.
func (c *Cache) lookup(key Digest) (*solve.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).res, true
}

// store inserts (or replaces) the entry and evicts from the LRU tail past
// capacity.
func (c *Cache) store(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	if el, ok := c.entries[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.order.PushFront(e)
	for c.order.Len() > c.capacity {
		back := c.order.Back()
		old := back.Value.(*entry)
		c.order.Remove(back)
		delete(c.entries, old.key)
		c.evictions++
	}
}

// noteWarm records that a lookup led to a warm start.
func (c *Cache) noteWarm() {
	c.mu.Lock()
	c.warm++
	c.mu.Unlock()
}

// sameInstance finds a cached solve of the exact same instance (graph,
// architecture and instance-shaping options equal) produced under a
// different full key — a different solver or different search options.
// Among candidates it picks the lowest makespan, breaking ties by key
// (Digest.less, the order of the hex form), so the choice is independent
// of LRU recency order and therefore of request interleaving. The entries list, not the map, is scanned: the
// scan order never influences the result, but iterating the container
// keeps the selection logic obviously order-free.
func (c *Cache) sameInstance(instance Digest) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *entry
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.instance != instance || e.res.Schedule == nil {
			continue
		}
		if best == nil ||
			e.res.Schedule.Makespan < best.res.Schedule.Makespan ||
			(e.res.Schedule.Makespan == best.res.Schedule.Makespan && e.key.less(best.key)) {
			best = e
		}
	}
	return best, best != nil
}

// nearest finds the most similar cached solve on the same architecture
// that carries a floorplan (hints are all a near-miss can soundly reuse).
// Distance is the multiset task/edge signature delta; candidates above the
// threshold are rejected. Ties break by key for the same
// interleaving-independence as sameInstance.
//
// The scan is bounded: once an entry at delta d is found, only entries at
// delta d or less can still win (a tie breaks on the key), so every later
// delta is computed with deltaWithin under min(threshold, d). Most entries
// fail its size-difference bound without a merge; the result is the same
// entry and delta as the full scan's.
func (c *Cache) nearest(arch Digest, sig *Signature) (*entry, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bound := c.threshold(sig.Size())
	var best *entry
	bestDelta := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.arch != arch || len(e.res.Placements) == 0 || e.sig == nil {
			continue
		}
		d, ok := sig.deltaWithin(e.sig, bound)
		if !ok {
			continue
		}
		if best == nil || d < bestDelta || (d == bestDelta && e.key.less(best.key)) {
			best, bestDelta, bound = e, d, d
		}
	}
	if best == nil {
		return nil, 0, false
	}
	return best, bestDelta, true
}
