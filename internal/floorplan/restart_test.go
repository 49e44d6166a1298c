package floorplan

import (
	"errors"
	"testing"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/obs"
	"resched/internal/resources"
)

// TestRestart drives the §V-H loop with fake attempts: each returns fixed
// region requirements, whatever capacity it is given, and the table pins
// what the loop makes of their floorplan answers.
func TestRestart(t *testing.T) {
	a := arch.ZedBoard()
	f := a.Fabric
	small := []resources.Vector{resources.Vec(300, 0, 0), resources.Vec(200, 0, 0)}
	huge := []resources.Vector{f.Capacity(), resources.Vec(100, 0, 0)} // a proven "no"
	good, err := Solve(f, small, Options{})
	if err != nil || !good.Feasible {
		t.Fatalf("reference solve: %v, %+v", err, good)
	}
	bad := []Placement{good.Placements[0], good.Placements[0]} // overlapping
	cancelled := budget.New(budget.Options{})
	cancelled.Cancel()
	stolen := faultinject.New() // every query an unproven "no"
	stolen.ForceFloorplanInfeasible(-1)

	// firstFit answers huge for the first k attempts, small afterwards.
	firstFit := func(k int) func(int) []resources.Vector {
		return func(n int) []resources.Vector {
			if n < k {
				return huge
			}
			return small
		}
	}
	always := func(r []resources.Vector) func(int) []resources.Vector {
		return func(int) []resources.Vector { return r }
	}
	cases := []struct {
		name     string
		restart  Restart
		regions  func(n int) []resources.Vector
		attempts int
		retries  int
		queries  int64
		counters map[string]int64
		wantErr  error
	}{
		{name: "never fits", regions: always(huge), attempts: 21, retries: 20, queries: 21,
			counters: map[string]int64{"x.retries": 20, "x.retries_unproven": 0}, wantErr: ErrInfeasible},
		{name: "fits first", regions: always(small), attempts: 1, queries: 1},
		{name: "fits after 3", regions: firstFit(3), attempts: 4, retries: 3, queries: 4,
			counters: map[string]int64{"x.retries": 3}},
		{name: "budget", restart: Restart{Budget: cancelled}, regions: always(small),
			wantErr: budget.ErrExhausted},
		{name: "verified hint", restart: Restart{Hint: good.Placements}, regions: always(small),
			attempts: 1, counters: map[string]int64{"x.floorplan_hint_used": 1}},
		{name: "bad hint", restart: Restart{Hint: bad}, regions: always(small), attempts: 1, queries: 1,
			counters: map[string]int64{"x.floorplan_hint_rejected": 1, "x.floorplan_hint_used": 0}},
		{name: "skip", restart: Restart{Skip: true}, regions: always(huge), attempts: 1},
		{name: "unproven", restart: Restart{Faults: stolen}, regions: always(small),
			attempts: 21, retries: 20, queries: 21,
			counters: map[string]int64{"x.retries": 20, "x.retries_unproven": 20}, wantErr: ErrInfeasible},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := obs.New()
			r := c.restart
			r.Name, r.QuerySpan, r.Arch, r.Trace = "x", "x.floorplan", a, tr
			var caps []resources.Vector
			stats, err := r.Run(func(maxRes resources.Vector) ([]resources.Vector, error) {
				caps = append(caps, maxRes)
				return c.regions(len(caps) - 1), nil
			})
			if !errors.Is(err, c.wantErr) || (err == nil) != (c.wantErr == nil) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if len(caps) != c.attempts {
				t.Errorf("%d attempts, want %d", len(caps), c.attempts)
			}
			want := a.MaxRes
			for n, got := range caps {
				if got != want {
					t.Errorf("attempt %d at capacity %v, want %v", n, got, want)
				}
				for k := range want {
					want[k] = int(float64(want[k]) * 0.93)
				}
			}
			snap := tr.Snapshot()
			if got := snap.Counters["floorplan.calls"]; got != c.queries {
				t.Errorf("%d floorplan queries, want %d", got, c.queries)
			}
			for name, want := range c.counters {
				if got := snap.Counters[name]; got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if err != nil {
				return
			}
			if stats.Attempts != c.attempts || stats.Retries != c.retries {
				t.Errorf("stats: %d attempts, %d retries; want %d, %d", stats.Attempts, stats.Retries, c.attempts, c.retries)
			}
			if r.Skip {
				if len(stats.Placements) != 0 {
					t.Errorf("unfloorplanned run returned %d placements", len(stats.Placements))
				}
				return
			}
			if err := Verify(f, small, stats.Placements); err != nil {
				t.Errorf("placements: %v", err)
			}
		})
	}
}

// TestRestartNilTraceAllocs extends the nil-trace contract to the loop: an
// untraced run allocates nothing for its spans and counters, so a skipped
// floorplan costs no allocation and a verified hint only its copy.
func TestRestartNilTraceAllocs(t *testing.T) {
	a := arch.ZedBoard()
	regions := []resources.Vector{resources.Vec(300, 0, 0)}
	good, err := Solve(a.Fabric, regions, Options{})
	if err != nil || !good.Feasible {
		t.Fatalf("reference solve: %v", err)
	}
	attempt := func(resources.Vector) ([]resources.Vector, error) { return regions, nil }
	for _, c := range []struct {
		name string
		r    Restart
		want float64
	}{
		{"skip", Restart{Name: "x", Arch: a, Skip: true}, 0},
		{"verified hint", Restart{Name: "x", Arch: a, Hint: good.Placements}, 1},
	} {
		if got := testing.AllocsPerRun(100, func() {
			if _, err := c.r.Run(attempt); err != nil {
				t.Fatal(err)
			}
		}); got != c.want {
			t.Errorf("%s: %v allocs/op, want %v", c.name, got, c.want)
		}
	}
}
