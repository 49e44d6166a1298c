package schedcache

import (
	"time"

	"resched/internal/floorplan"
	"resched/internal/obs"
	"resched/internal/sched"
	"resched/internal/solve"
)

// Wrap decorates a solver with the cache: exact repeats return the stored
// result, near-misses warm-start the inner solver, everything else passes
// through untouched. A nil cache returns the solver unchanged.
func Wrap(s solve.Solver, c *Cache) solve.Solver {
	if c == nil {
		return s
	}
	return cachingSolver{inner: s, cache: c}
}

type cachingSolver struct {
	inner solve.Solver
	cache *Cache
}

func (cs cachingSolver) Name() string { return cs.inner.Name() }

// Cacheable reports whether a request to the named solver is a pure
// function of its cache key and may therefore be served from or stored
// into the cache.
//
//   - pa, is1, is5, exact: always deterministic.
//   - par: deterministic exactly when iteration-bounded (MaxIterations > 0)
//     with no wall-clock budget — RSchedule is then a pure function of
//     (Seed, Workers, MaxIterations).
//   - robust: deterministic with no wall-clock budget (a zero
//     MaxIterations defaults to 32, keeping the PA-R rung bounded).
//   - anything else: unknown semantics, never cached.
//
// Requests with armed faults or caller-provided warm-start inputs are
// excluded separately in Solve: injected failures and external hints are
// not part of the key.
func Cacheable(name string, o *solve.Options) bool {
	switch name {
	case "pa", "is1", "is5", "exact":
		return true
	case "par":
		return o.TimeBudget == 0 && o.MaxIterations > 0
	case "robust":
		return o.TimeBudget == 0
	default:
		return false
	}
}

func (cs cachingSolver) Solve(req *solve.Request) (*solve.Result, error) {
	name := cs.inner.Name()
	if !Cacheable(name, &req.Options) ||
		len(req.Faults.Armed()) > 0 ||
		req.InitialIncumbent != nil || len(req.FloorplanHint) > 0 {
		return cs.inner.Solve(req)
	}
	begin := time.Now()
	keys := computeKeys(req, name)
	if res, ok := cs.cache.lookup(keys.full); ok {
		lookup := time.Since(begin)
		req.Trace.Count("cache.hits", 1)
		req.Trace.Observe("cache.lookup_us", float64(lookup.Nanoseconds())/1e3)
		out := cloneResult(res)
		out.Cache = "hit"
		out.CacheTime = lookup
		return out, nil
	}
	req.Trace.Count("cache.misses", 1)
	// The similarity signature is only needed past this point (near-miss
	// probe and store), keeping the exact-hit path free of its cost.
	sig := signatureOf(req.Graph)

	// Warm-start probe. Only the solvers that consume a given warm input
	// receive it, so the request stays bit-identical for the rest.
	mode := "miss"
	creq := *req
	wantIncumbent := name == "par" || name == "robust"
	wantHint := name == "pa" || name == "robust"
	if ent, ok := cs.cache.sameInstance(keys.instance); ok {
		// Exact same instance solved before under other options: its
		// schedule is valid here, so it can seed the incumbent directly.
		if wantIncumbent {
			creq.InitialIncumbent = ent.res.Schedule.Clone()
			mode = "warm"
		}
		if wantHint && len(ent.res.Placements) > 0 {
			creq.FloorplanHint = append([]floorplan.Placement(nil), ent.res.Placements...)
			mode = "warm"
		}
	} else if wantHint {
		// Near-miss: a similar instance's schedule belongs to a different
		// graph and must not become an incumbent, but its floorplan is a
		// legitimate hint — phase 8 verifies it against this run's regions
		// before trusting it.
		if ent, delta, ok := cs.cache.nearest(keys.arch, sig); ok {
			creq.FloorplanHint = append([]floorplan.Placement(nil), ent.res.Placements...)
			mode = "warm"
			req.Trace.Event("cache.near_miss", obs.Int("delta", int64(delta)))
		}
	}
	if mode == "warm" {
		cs.cache.noteWarm()
		req.Trace.Count("cache.warm_starts", 1)
	}
	lookup := time.Since(begin)
	req.Trace.Observe("cache.lookup_us", float64(lookup.Nanoseconds())/1e3)

	res, err := cs.inner.Solve(&creq)
	if err != nil {
		return nil, err
	}
	// Store rule: a clean budget after a successful solve proves the
	// budget never influenced the run, so the result is a pure function of
	// the key (plus the warm context, which is itself a deterministic
	// function of the cache state — see DESIGN.md §16).
	if res.Schedule != nil && req.Budget.Check() == nil {
		stored := cloneResult(res)
		stored.Cache = ""
		stored.CacheTime = 0
		cs.cache.store(&entry{
			key: keys.full, instance: keys.instance, arch: keys.arch,
			sig: sig, res: stored,
		})
		req.Trace.Count("cache.stores", 1)
	}
	res.Cache = mode
	res.CacheTime = lookup
	return res, nil
}

// cloneResult deep-copies a result so cache-internal state and caller
// state never alias: the schedule (shared Graph/Arch pointers are
// immutable inputs), the placements and every optional stats block.
func cloneResult(r *solve.Result) *solve.Result {
	out := *r
	if r.Schedule != nil {
		out.Schedule = r.Schedule.Clone()
	}
	if r.Placements != nil {
		out.Placements = append([]floorplan.Placement(nil), r.Placements...)
	}
	if r.Search != nil {
		s := *r.Search
		s.History = append([]sched.ImprovementPoint(nil), r.Search.History...)
		out.Search = &s
	}
	if r.Window != nil {
		w := *r.Window
		out.Window = &w
	}
	if r.Exact != nil {
		e := *r.Exact
		out.Exact = &e
	}
	if r.Ladder != nil {
		l := *r.Ladder
		out.Ladder = &l
	}
	return &out
}
