package solve

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/isk"
	"resched/internal/sched"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

func genGraph(tb testing.TB, cfg benchgen.Config) *taskgraph.Graph {
	tb.Helper()
	g, err := benchgen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestRegistryRoster pins the built-in solver roster: every algorithm the
// paper evaluates is reachable by name, and List is sorted so -algo help
// text and test iteration order are stable.
func TestRegistryRoster(t *testing.T) {
	want := []string{"exact", "is1", "is5", "pa", "par", "robust"}
	got := List()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("List() = %v, want %v", got, want)
	}
	if !sort.StringsAreSorted(got) {
		t.Errorf("List() is not sorted: %v", got)
	}
	for _, name := range want {
		s, err := Get(name)
		if err != nil {
			t.Errorf("Get(%q): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, s.Name())
		}
	}
}

// TestGetUnknown locks the error contract: a typo'd -algo value produces an
// error that enumerates the valid names.
func TestGetUnknown(t *testing.T) {
	_, err := Get("milp")
	if err == nil {
		t.Fatal("Get(\"milp\") succeeded")
	}
	for _, name := range List() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention registered solver %q", err, name)
		}
	}
}

// TestRegisterRejects pins the registration failure modes: empty names and
// duplicates panic at init time instead of shadowing silently.
func TestRegisterRejects(t *testing.T) {
	mustPanic := func(name string, s Solver) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%q) did not panic", name)
			}
		}()
		Register(s)
	}
	mustPanic("", nameOnly(""))
	mustPanic("pa", nameOnly("pa")) // already taken by the built-in roster
}

// nameOnly is a Solver stub for registration tests.
type nameOnly string

func (n nameOnly) Name() string                    { return string(n) }
func (n nameOnly) Solve(*Request) (*Result, error) { return nil, nil }

// TestAdaptersMatchDirectCalls is the refactor's core acceptance criterion:
// for fixed seeds, solving through the registry must return exactly the
// schedule the underlying package API returns when called directly — the
// adapters translate options and stats but never perturb the computation.
// The composite solvers are checked against what they compose: robust
// equals PA when PA succeeds, and exact equals exhaustive IS-k with one
// window over the whole graph.
func TestAdaptersMatchDirectCalls(t *testing.T) {
	a := arch.ZedBoard()
	g := genGraph(t, benchgen.Config{Tasks: 40, Seed: 2016})
	small := genGraph(t, benchgen.Config{Tasks: 9, Seed: 2016})
	opts := Options{Seed: 7, MaxIterations: 30, Workers: 1, ModuleReuse: true}

	via := func(name string, g *taskgraph.Graph) *schedule.Schedule {
		t.Helper()
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Solve(&Request{Graph: g, Arch: a, Options: opts})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Makespan != r.Schedule.Makespan {
			t.Errorf("%s: Result.Makespan %d != Schedule.Makespan %d", name, r.Makespan, r.Schedule.Makespan)
		}
		return r.Schedule
	}

	check := func(name string, direct *schedule.Schedule, err error, g *taskgraph.Graph) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		if got := via(name, g); !reflect.DeepEqual(got, direct) {
			t.Errorf("%s: registry schedule differs from the direct call", name)
		}
	}

	pa, _, err := sched.Schedule(g, a, sched.Options{ModuleReuse: true})
	check("pa", pa, err, g)
	check("robust", pa, err, g)

	par, _, err := sched.RSchedule(g, a, sched.RandomOptions{
		Seed: 7, MaxIterations: 30, Workers: 1, ModuleReuse: true,
	})
	check("par", par, err, g)

	is1, _, err := isk.Schedule(g, a, isk.Options{K: 1, ModuleReuse: true})
	check("is1", is1, err, g)

	is5, _, err := isk.Schedule(g, a, isk.Options{K: 5, ModuleReuse: true})
	check("is5", is5, err, g)

	ex, _, err := isk.Schedule(small, a, isk.Options{
		K: small.N(), Exhaustive: true, SkipFloorplan: true, ModuleReuse: true,
	})
	if err == nil {
		ex.Algorithm = "EXACT"
	}
	check("exact", ex, err, small)
}
