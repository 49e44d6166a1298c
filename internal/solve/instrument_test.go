package solve

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/budget"
	"resched/internal/obs"
)

// TestRegistryAutoInstrumentation asserts the decorator applied at Register
// time: solving through the registry with a trace records the uniform
// latency histogram, request counter and per-rung counter without any
// per-solver wiring, and records nothing with a nil trace.
func TestRegistryAutoInstrumentation(t *testing.T) {
	a := arch.ZedBoard()
	g := genGraph(t, benchgen.Config{Tasks: 20, Seed: 2016})
	for _, name := range []string{"pa", "par", "is1", "robust"} {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New()
		req := &Request{Graph: g, Arch: a, Options: Options{
			Seed: 7, MaxIterations: 5, Workers: 1, Trace: tr,
		}}
		res, err := s.Solve(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap := tr.Snapshot()
		lat, ok := snap.Histograms["solve."+name+".latency_us"]
		if !ok || lat.Count != 1 {
			t.Errorf("%s: latency histogram missing or wrong count: %+v", name, snap.Histograms)
		}
		if snap.Counters["solve."+name+".requests"] != 1 {
			t.Errorf("%s: requests counter = %d, want 1", name, snap.Counters["solve."+name+".requests"])
		}
		if c := snap.Counters["solve."+name+".errors"]; c != 0 {
			t.Errorf("%s: errors counter = %d, want 0", name, c)
		}
		if name == "robust" {
			rung := "solve.robust.rung." + res.Ladder.Rung.String()
			if snap.Counters[rung] != 1 {
				t.Errorf("robust: rung counter %q = %d, want 1 (counters: %v)",
					rung, snap.Counters[rung], snap.Counters)
			}
		}
		var found bool
		for _, sp := range snap.Spans {
			if sp.Name == "solve."+name {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no solve.%s span recorded", name, name)
		}
	}
}

// TestConcurrentSolvesDoNotCrossNest runs PA solves from two goroutines on
// one shared trace, as a daemon's solver workers do: every pa.run must sit
// directly under its own solve.pa span, no span may have two pa.run
// ancestors, and every span must lie inside its parent's time range.
func TestConcurrentSolvesDoNotCrossNest(t *testing.T) {
	a := arch.ZedBoard()
	s, err := Get("pa")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	const solvers, perSolver = 2, 10
	errs := make(chan error, solvers*perSolver)
	var wg sync.WaitGroup
	for w := 0; w < solvers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perSolver; i++ {
				g, err := benchgen.Generate(benchgen.Config{Tasks: 20, Seed: int64(100*w + i)})
				if err == nil {
					_, err = s.Solve(&Request{Graph: g, Arch: a, Options: Options{Trace: tr}})
				}
				if err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	runs := 0
	for i, sp := range snap.Spans {
		if sp.Name == "pa.run" {
			runs++
			if sp.Parent < 0 || snap.Spans[sp.Parent].Name != "solve.pa" {
				t.Errorf("span %d: pa.run is not directly under a solve.pa span", i)
			}
		}
		nested := 0
		for p := sp.Parent; p >= 0; p = snap.Spans[p].Parent {
			if snap.Spans[p].Name == "pa.run" {
				nested++
			}
		}
		if nested > 1 {
			t.Errorf("span %d %s has %d pa.run ancestors", i, sp.Name, nested)
		}
		if sp.Parent >= 0 {
			if p := snap.Spans[sp.Parent]; sp.Start < p.Start || sp.End > p.End {
				t.Errorf("span %d %s [%v,%v] escapes its parent %s [%v,%v]",
					i, sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
			}
		}
	}
	if runs != solvers*perSolver {
		t.Errorf("recorded %d pa.run spans, want %d", runs, solvers*perSolver)
	}
}

// TestBudgetExhaustionEvent asserts the flight recorder sees every budget
// trip crossing the registry boundary, with the specific reason attached.
func TestBudgetExhaustionEvent(t *testing.T) {
	a := arch.ZedBoard()
	g := genGraph(t, benchgen.Config{Tasks: 40, Seed: 2016})
	s, err := Get("pa")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	b := budget.New(budget.Options{MaxNodes: 1})
	_, err = s.Solve(&Request{Graph: g, Arch: a, Options: Options{Budget: b, Trace: tr}})
	if !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("expected a budget-exhausted error, got %v", err)
	}
	snap := tr.Snapshot()
	if snap.Counters["solve.pa.errors"] != 1 {
		t.Errorf("errors counter = %d, want 1", snap.Counters["solve.pa.errors"])
	}
	var ev *obs.EventInfo
	for i := range snap.Events {
		if snap.Events[i].Name == "solve.budget_exhausted" {
			ev = &snap.Events[i]
		}
	}
	if ev == nil {
		t.Fatalf("no solve.budget_exhausted event in %+v", snap.Events)
	}
	args := map[string]any{}
	for _, arg := range ev.Args {
		args[arg.Key] = arg.Val
	}
	if args["solver"] != "pa" {
		t.Errorf("event solver arg = %v, want pa", args["solver"])
	}
	if args["reason"] != budget.ErrNodeCap.Reason.String() {
		t.Errorf("event reason arg = %v, want %q", args["reason"], budget.ErrNodeCap.Reason.String())
	}
}

// TestNilTracePassthrough asserts the decorator's fast path: with no trace
// the wrapped solver's result is returned untouched and the solve is
// byte-identical to an instrumented one (the determinism contract).
func TestNilTracePassthrough(t *testing.T) {
	a := arch.ZedBoard()
	g := genGraph(t, benchgen.Config{Tasks: 20, Seed: 2016})
	s, err := Get("pa")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.Solve(&Request{Graph: g, Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := s.Solve(&Request{Graph: g, Arch: a, Options: Options{Trace: obs.New()}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Schedule, traced.Schedule) {
		t.Error("instrumented and uninstrumented solves disagree on the schedule")
	}
	if plain.Makespan != traced.Makespan {
		t.Errorf("makespan %d with nil trace, %d with trace", plain.Makespan, traced.Makespan)
	}
}
