// Schedule-cache benchmarks, wired into the benchcmp regression gate
// alongside the Table I suite. BenchmarkCacheHit is the headline number of
// the content-addressed cache: serving a repeated instance from the cache
// must cost orders of magnitude less than re-running PA on it
// (BenchmarkTable1PA is the fresh-solve baseline at the same task counts).
// BenchmarkCacheKey prices the admission overhead a cache miss adds to
// every solve, and BenchmarkCacheWarmStartPAR measures the point of the
// warm-start path: a PA-R search seeded with a cached incumbent reaches the
// cached quality without re-discovering it.
package repro

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/floorplan"
	"resched/internal/schedcache"
	"resched/internal/schedule"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

// getSolver fetches a registered solver or fails the benchmark.
func getSolver(tb testing.TB, name string) solve.Solver {
	tb.Helper()
	s, err := solve.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkCacheHit measures an exact cache hit across the Table I task
// counts: one primed solve, then every iteration is answered from the
// cache in O(hash) — compare against BenchmarkTable1PA at the same
// tasks=N to see the speedup.
func BenchmarkCacheHit(b *testing.B) {
	a := arch.ZedBoard()
	for _, n := range benchGroups {
		e := instance(b, n, 0)
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			cached := schedcache.Wrap(getSolver(b, "pa"), schedcache.New(64))
			if _, err := cached.Solve(&solve.Request{Graph: e.Graph, Arch: a}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh Request each iteration: the timed path covers key
				// canonicalization, lookup and the defensive result clone.
				res, err := cached.Solve(&solve.Request{Graph: e.Graph, Arch: a})
				if err != nil {
					b.Fatal(err)
				}
				if res.Cache != "hit" {
					b.Fatalf("cache = %q, want hit", res.Cache)
				}
			}
		})
	}
}

// BenchmarkCacheKey prices the canonical key computation alone — the
// fixed overhead a cache miss adds on top of the fresh solve.
func BenchmarkCacheKey(b *testing.B) {
	a := arch.ZedBoard()
	for _, n := range benchGroups {
		req := &solve.Request{Graph: instance(b, n, 0).Graph, Arch: a}
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if k := schedcache.Key(req, "pa"); k == "" {
					b.Fatal("empty key")
				}
			}
		})
	}
}

// itersToQuality counts the PA-R iterations a search needed to first
// reach (or beat) the target makespan. A warm start whose incumbent
// already meets the target needs zero; a search that never got there
// reports the cap.
func itersToQuality(initial int64, res *solve.Result, target int64, cap int) int {
	if initial > 0 && initial <= target {
		return 0
	}
	if res.Search != nil {
		for _, p := range res.Search.History {
			if p.Makespan <= target {
				return p.Iteration
			}
		}
	}
	return cap
}

// BenchmarkCacheWarmStartPAR contrasts a cold PA-R search against one
// warm-started from a cached result of the same instance: both run a
// different seed than the reference, and the iters_to_cached_quality
// metric reports how many iterations each needed to reach the cached
// reference quality (the warm run starts there — zero).
func BenchmarkCacheWarmStartPAR(b *testing.B) {
	const iters = 24
	e := instance(b, 60, 0)
	a := arch.ZedBoard()
	ref, err := getSolver(b, "par").Solve(&solve.Request{
		Graph: e.Graph, Arch: a,
		Options: solve.Options{Seed: 1, Workers: 1, MaxIterations: iters},
	})
	if err != nil {
		b.Fatal(err)
	}
	target := ref.Makespan

	b.Run("cold", func(b *testing.B) {
		reached := iters
		for i := 0; i < b.N; i++ {
			res, err := getSolver(b, "par").Solve(&solve.Request{
				Graph: e.Graph, Arch: a,
				Options: solve.Options{Seed: 2, Workers: 1, MaxIterations: iters},
			})
			if err != nil {
				b.Fatal(err)
			}
			reached = itersToQuality(0, res, target, iters)
		}
		b.ReportMetric(float64(reached), "iters_to_cached_quality")
	})
	b.Run("warm", func(b *testing.B) {
		reached := iters
		for i := 0; i < b.N; i++ {
			res, err := getSolver(b, "par").Solve(&solve.Request{
				Graph: e.Graph, Arch: a,
				Options: solve.Options{
					Seed: 2, Workers: 1, MaxIterations: iters,
					InitialIncumbent: ref.Schedule.Clone(),
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Makespan > target {
				b.Fatalf("warm result %d worse than incumbent %d", res.Makespan, target)
			}
			reached = itersToQuality(target, res, target, iters)
		}
		b.ReportMetric(float64(reached), "iters_to_cached_quality")
	})
}

// probeSolver stands in for PA behind the cache decorator: while filling
// it returns a synthetic schedule with a floorplan (a hint donor for
// near-miss probes); while probing it fails, so nothing is stored and the
// cache stays exactly as filled.
type probeSolver struct{ filling bool }

var errProbeOnly = errors.New("probe only")

func (p *probeSolver) Name() string { return "pa" }

func (p *probeSolver) Solve(req *solve.Request) (*solve.Result, error) {
	if !p.filling {
		return nil, errProbeOnly
	}
	sch := schedule.New(req.Graph, req.Arch)
	sch.Makespan = 1
	return &solve.Result{Schedule: sch, Makespan: 1,
		Placements: []floorplan.Placement{{X0: 0, X1: 1, Y0: 0, Y1: 1}}}, nil
}

// BenchmarkCacheMissProbe prices what a cache miss costs on top of the
// solve, on a full 256-entry cache of 10–60-task graphs (the serve-mix
// pool's sizes): the key, the lookup, the similarity signature and both
// warm-start probes. "near" requests perturb one implementation time of a
// cached graph, so the probe finds a neighbour at delta 2; "far" requests
// are graphs the cache has never seen.
func BenchmarkCacheMissProbe(b *testing.B) {
	const entries = 256
	a := arch.ZedBoard()
	rng := rand.New(rand.NewSource(2016))
	gen := func(seed int64) *taskgraph.Graph {
		g, err := benchgen.Generate(benchgen.Config{Tasks: 10 + rng.Intn(51), Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	stub := &probeSolver{filling: true}
	cached := schedcache.Wrap(stub, schedcache.New(entries))
	pool := make([]*taskgraph.Graph, entries)
	for i := range pool {
		pool[i] = gen(int64(i))
		if _, err := cached.Solve(&solve.Request{Graph: pool[i], Arch: a}); err != nil {
			b.Fatal(err)
		}
	}
	stub.filling = false
	near := make([]*taskgraph.Graph, 64)
	far := make([]*taskgraph.Graph, 64)
	for i := range near {
		p := pool[rng.Intn(entries)].Clone()
		t := p.Tasks[rng.Intn(len(p.Tasks))]
		t.Impls[rng.Intn(len(t.Impls))].Time += 1 + rng.Int63n(3)
		near[i] = p
		far[i] = gen(int64(10000 + i))
	}
	for _, bc := range []struct {
		name   string
		graphs []*taskgraph.Graph
	}{{"near", near}, {"far", far}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cached.Solve(&solve.Request{Graph: bc.graphs[i%len(bc.graphs)], Arch: a}); err != errProbeOnly {
					b.Fatalf("probe returned %v", err)
				}
			}
		})
	}
}
