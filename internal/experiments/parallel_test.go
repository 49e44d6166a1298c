package experiments

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"resched/internal/budget"
	"resched/internal/obs"
)

// TestRunWorkersPreservesOrderAndResults pins the indexed fan-in: a pooled
// run must return the same instances in the same suite order as a
// sequential run, with identical makespans for the deterministic
// algorithms. (PA-R runs under a wall-clock budget, so only its success is
// checked, not its makespan.)
func TestRunWorkersPreservesOrderAndResults(t *testing.T) {
	cfg := Config{
		PerGroup:     2,
		Groups:       []int{10, 20},
		Validate:     true,
		MinParBudget: 5 * time.Millisecond,
	}
	seq, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	// Progress may be called from worker goroutines, concurrently.
	var calls atomic.Int64
	par, err := Run(cfg, func(done, total int) {
		calls.Add(1)
		if total != len(seq) {
			t.Errorf("progress total = %d, want %d", total, len(seq))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != int64(len(seq)) {
		t.Errorf("progress called %d times, want %d", n, len(seq))
	}
	if len(par) != len(seq) {
		t.Fatalf("pooled run returned %d instances, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.Group != p.Group || s.Index != p.Index {
			t.Fatalf("slot %d: pooled order (%d,%d) differs from sequential (%d,%d)",
				i, p.Group, p.Index, s.Group, s.Index)
		}
		if s.PA.Makespan != p.PA.Makespan || s.IS1.Makespan != p.IS1.Makespan || s.IS5.Makespan != p.IS5.Makespan {
			t.Errorf("slot %d: deterministic makespans differ: seq PA/IS1/IS5 = %d/%d/%d, pooled %d/%d/%d",
				i, s.PA.Makespan, s.IS1.Makespan, s.IS5.Makespan, p.PA.Makespan, p.IS1.Makespan, p.IS5.Makespan)
		}
		for name, ar := range map[string]AlgoResult{"PA": p.PA, "PAR": p.PAR, "IS1": p.IS1, "IS5": p.IS5} {
			if ar.Err != nil {
				t.Errorf("slot %d %s: %v", i, name, ar.Err)
			}
		}
	}
}

// TestRunWorkersRootSpans asserts concurrent instances record detached root
// spans: one experiment.instance span per instance, each parentless.
func TestRunWorkersRootSpans(t *testing.T) {
	tr := obs.New()
	res, err := Run(Config{
		PerGroup: 2, Groups: []int{10}, Workers: 2,
		MinParBudget: 5 * time.Millisecond, Trace: tr,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	instances := 0
	for _, sp := range snap.Spans {
		if sp.Name != "experiment.instance" {
			continue
		}
		instances++
		if sp.Parent != -1 || sp.Depth != 0 {
			t.Errorf("concurrent instance span has parent %d depth %d, want detached root", sp.Parent, sp.Depth)
		}
	}
	if instances != len(res) {
		t.Errorf("recorded %d instance spans for %d instances", instances, len(res))
	}
}

// TestRunWorkersBudgetEarlyStop mirrors the sequential early-stop contract:
// on budget exhaustion the pooled run returns the completed prefix (possibly
// empty) and a typed error.
func TestRunWorkersBudgetEarlyStop(t *testing.T) {
	bud := budget.New(budget.Options{})
	bud.Cancel()
	res, err := Run(Config{
		PerGroup: 2, Groups: []int{10, 20}, Workers: 2,
		MinParBudget: 5 * time.Millisecond, Budget: bud,
	}, nil)
	if err == nil {
		t.Fatal("cancelled budget did not stop the run")
	}
	if !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("error %v does not match budget.ErrExhausted", err)
	}
	if len(res) != 0 {
		t.Errorf("cancelled-before-start run returned %d instances", len(res))
	}
}

// TestRunParallelismWorkers pins that the DAG-shape sweep aggregates in
// instance order regardless of worker count: the deterministic IS-5 means
// must match between a sequential and a pooled sweep.
func TestRunParallelismWorkers(t *testing.T) {
	base := ParallelismConfig{
		Tasks: 20, Instances: 2, Layers: []int{10, 4},
		ParBudget: 5 * time.Millisecond,
	}
	seq, err := RunParallelism(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Workers = 3
	par, err := RunParallelism(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("point counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Layers != par[i].Layers || seq[i].MeanIS5 != par[i].MeanIS5 {
			t.Errorf("point %d: sequential (layers=%d IS5=%v) vs pooled (layers=%d IS5=%v)",
				i, seq[i].Layers, seq[i].MeanIS5, par[i].Layers, par[i].MeanIS5)
		}
	}
}
