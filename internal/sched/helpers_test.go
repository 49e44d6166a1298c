package sched

import (
	"testing"

	"resched/internal/benchgen"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// mustEdge adds a dependency or fails the test; the library itself no longer
// panics on construction errors.
func mustEdge(tb testing.TB, g *taskgraph.Graph, from, to int) {
	tb.Helper()
	if err := g.AddEdge(from, to); err != nil {
		tb.Fatal(err)
	}
}

// genGraph generates a benchmark graph or fails the test.
func genGraph(tb testing.TB, cfg benchgen.Config) *taskgraph.Graph {
	tb.Helper()
	g, err := benchgen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// validOrFatal fails the test on the first checker violation.
func validOrFatal(t *testing.T, s *schedule.Schedule) {
	t.Helper()
	if errs := schedule.Check(s); len(errs) > 0 {
		t.Fatalf("invalid schedule: %v", errs[0])
	}
}
