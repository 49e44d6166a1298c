package schedcache

import (
	"reflect"
	"testing"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/solve"
)

// testRequest builds a cacheable request for the named solver over a
// fresh copy of the standard test instance.
func testRequest(tb testing.TB, solver string, tasks int) *solve.Request {
	tb.Helper()
	g, err := benchgen.Generate(benchgen.Config{Tasks: tasks, Seed: 11})
	if err != nil {
		tb.Fatal(err)
	}
	req := &solve.Request{Graph: g, Arch: arch.ZedBoard()}
	switch solver {
	case "par":
		req.Seed, req.Workers, req.MaxIterations = 1, 1, 6
	case "robust":
		req.Seed = 1
	}
	return req
}

// TestCachedEqualsFresh is the central determinism gate: for every
// cacheable solver, the result served from the cache must be bit-identical
// to a fresh solve of the same request — same schedule, same makespan,
// same placements — and the Cache tags must read miss-then-hit.
func TestCachedEqualsFresh(t *testing.T) {
	for _, tc := range []struct {
		solver string
		tasks  int
	}{
		{"pa", 20}, {"par", 20}, {"robust", 20}, {"is1", 10}, {"exact", 6},
	} {
		t.Run(tc.solver, func(t *testing.T) {
			inner, err := solve.Get(tc.solver)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := inner.Solve(testRequest(t, tc.solver, tc.tasks))
			if err != nil {
				t.Fatal(err)
			}

			cached := Wrap(inner, New(16))
			first, err := cached.Solve(testRequest(t, tc.solver, tc.tasks))
			if err != nil {
				t.Fatal(err)
			}
			if first.Cache != "miss" {
				t.Fatalf("first solve Cache = %q, want miss", first.Cache)
			}
			second, err := cached.Solve(testRequest(t, tc.solver, tc.tasks))
			if err != nil {
				t.Fatal(err)
			}
			if second.Cache != "hit" {
				t.Fatalf("second solve Cache = %q, want hit", second.Cache)
			}
			for name, res := range map[string]*solve.Result{"miss": first, "hit": second} {
				if res.Makespan != fresh.Makespan {
					t.Errorf("%s makespan = %d, fresh = %d", name, res.Makespan, fresh.Makespan)
				}
				if !reflect.DeepEqual(res.Schedule.Tasks, fresh.Schedule.Tasks) {
					t.Errorf("%s schedule tasks differ from fresh", name)
				}
				if !reflect.DeepEqual(res.Schedule.Regions, fresh.Schedule.Regions) {
					t.Errorf("%s schedule regions differ from fresh", name)
				}
				if !reflect.DeepEqual(res.Placements, fresh.Placements) {
					t.Errorf("%s placements differ from fresh", name)
				}
			}
		})
	}
}

// TestHitIsolation: mutating a result handed out by the cache must not
// corrupt the stored entry — the next hit sees the original.
func TestHitIsolation(t *testing.T) {
	inner, err := solve.Get("pa")
	if err != nil {
		t.Fatal(err)
	}
	cached := Wrap(inner, New(16))
	if _, err := cached.Solve(testRequest(t, "pa", 20)); err != nil {
		t.Fatal(err)
	}
	first, err := cached.Solve(testRequest(t, "pa", 20))
	if err != nil {
		t.Fatal(err)
	}
	want := first.Schedule.Tasks[0]
	first.Makespan = -1
	first.Schedule.Tasks[0].Start = -99
	if len(first.Placements) > 0 {
		first.Placements[0].X1 = -1
	}
	second, err := cached.Solve(testRequest(t, "pa", 20))
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" {
		t.Fatalf("Cache = %q, want hit", second.Cache)
	}
	if second.Makespan == -1 || second.Schedule.Tasks[0] != want {
		t.Fatal("mutating a served result leaked into the cache")
	}
}

// TestWarmStartDeterminism: warm-started solves must be reproducible —
// two runs against identically-primed fresh caches produce identical
// results — and the warm path must actually fire (Cache == "warm").
func TestWarmStartDeterminism(t *testing.T) {
	pa, err := solve.Get("pa")
	if err != nil {
		t.Fatal(err)
	}
	par, err := solve.Get("par")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *solve.Result {
		c := New(16)
		// Prime with PA on the instance, then solve PA-R over the same
		// instance: the sameInstance probe seeds the incumbent.
		if _, err := Wrap(pa, c).Solve(testRequest(t, "pa", 20)); err != nil {
			t.Fatal(err)
		}
		res, err := Wrap(par, c).Solve(testRequest(t, "par", 20))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cache != "warm" {
			t.Fatalf("Cache = %q, want warm", res.Cache)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Fatalf("warm double-run makespans differ: %d vs %d", a.Makespan, b.Makespan)
	}
	if !reflect.DeepEqual(a.Schedule.Tasks, b.Schedule.Tasks) {
		t.Fatal("warm double-run schedules differ")
	}
	// The incumbent came from PA, so the warm PA-R result can never be
	// worse than the primed schedule.
	prime, err := pa.Solve(testRequest(t, "pa", 20))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan > prime.Makespan {
		t.Fatalf("warm PA-R makespan %d worse than its incumbent %d", a.Makespan, prime.Makespan)
	}
}

// TestNearMissWarmStart: perturbing one implementation time keeps the
// solve on the warm path via the similarity probe, and the warm-started
// result still equals a fresh solve of the perturbed instance (the hint
// can only replace the floorplan search, never change the schedule).
func TestNearMissWarmStart(t *testing.T) {
	inner, err := solve.Get("pa")
	if err != nil {
		t.Fatal(err)
	}
	c := New(16)
	cached := Wrap(inner, c)
	if _, err := cached.Solve(testRequest(t, "pa", 20)); err != nil {
		t.Fatal(err)
	}

	perturb := func() *solve.Request {
		req := testRequest(t, "pa", 20)
		req.Graph.Tasks[2].Impls[0].Time += 2
		return req
	}
	fresh, err := inner.Solve(perturb())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cached.Solve(perturb())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache != "warm" {
		t.Fatalf("Cache = %q, want warm (near-miss)", warm.Cache)
	}
	if warm.Makespan != fresh.Makespan {
		t.Fatalf("warm makespan = %d, fresh = %d", warm.Makespan, fresh.Makespan)
	}
	if !reflect.DeepEqual(warm.Schedule.Tasks, fresh.Schedule.Tasks) {
		t.Fatal("near-miss warm schedule differs from fresh")
	}
	if c.Stats().WarmStarts == 0 {
		t.Fatal("warm-start counter did not advance")
	}
}

// TestBypasses: requests the cache must not touch pass straight through
// with no Cache tag and no stored entry.
func TestBypasses(t *testing.T) {
	inner, err := solve.Get("par")
	if err != nil {
		t.Fatal(err)
	}
	c := New(16)
	cached := Wrap(inner, c)

	// A wall-clock-budgeted PA-R is not a pure function of its options —
	// bypass even though the request is otherwise valid.
	req := testRequest(t, "par", 10)
	req.TimeBudget = time.Second
	res, err := cached.Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "" {
		t.Fatalf("uncacheable request got Cache = %q", res.Cache)
	}
	if c.Len() != 0 {
		t.Fatalf("uncacheable request stored %d entries", c.Len())
	}
}
