package experiments

import (
	"fmt"
	"io"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/solve"
)

// OptGapConfig drives the optimality-gap study: on instances small enough
// for the exhaustive reference (the "exact" solver), how far from the best
// non-delay schedule do the heuristics land? The paper cannot report this
// (its exact MILP never terminates beyond toy sizes); with the fast
// reproduction substrate the measurement becomes feasible.
type OptGapConfig struct {
	// Seed generates the instances (default 2016).
	Seed int64
	// Sizes are the task counts to sample (default 5, 7, 9).
	Sizes []int
	// Instances per size (default 4).
	Instances int
	// ParBudget is PA-R's time budget per instance (default 30 ms).
	ParBudget time.Duration
}

// OptGapPoint aggregates one instance size.
type OptGapPoint struct {
	Tasks int
	N     int
	// Proven counts instances where the reference search completed.
	Proven int
	// Mean gaps over the reference makespan, in percent (0 = optimal).
	GapPA, GapPAR, GapIS1, GapIS5 float64
}

// RunOptGap measures heuristic gaps against the exhaustive reference.
func RunOptGap(cfg OptGapConfig) ([]OptGapPoint, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 2016
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{5, 7, 9}
	}
	if cfg.Instances == 0 {
		cfg.Instances = 4
	}
	if cfg.ParBudget == 0 {
		cfg.ParBudget = 30 * time.Millisecond
	}
	// The small MicroZed device keeps even tiny instances contended, so
	// the heuristics actually have decisions to get wrong.
	a := arch.MicroZed7010()
	var out []OptGapPoint
	for _, n := range cfg.Sizes {
		if n > solve.ExactMaxTasks {
			return nil, fmt.Errorf("experiments: size %d exceeds the exact-search limit %d", n, solve.ExactMaxTasks)
		}
		pt := OptGapPoint{Tasks: n}
		for idx := 0; idx < cfg.Instances; idx++ {
			g, err := benchgen.Generate(benchgen.Config{Tasks: n, Seed: cfg.Seed + int64(100*n+idx)})
			if err != nil {
				return nil, err
			}
			ref, err := runSolver("exact", g, a, solve.Options{ModuleReuse: true})
			if err != nil {
				return nil, fmt.Errorf("optgap n=%d: exact: %w", n, err)
			}
			if ref.Exact.Proven {
				pt.Proven++
			}
			gap := func(mk int64) float64 {
				return 100 * float64(mk-ref.Makespan) / float64(ref.Makespan)
			}
			pa, err := runSolver("pa", g, a, solve.Options{SkipFloorplan: true})
			if err != nil {
				return nil, err
			}
			par, err := runSolver("par", g, a, solve.Options{TimeBudget: cfg.ParBudget, Seed: cfg.Seed + int64(idx)})
			if err != nil {
				return nil, err
			}
			is1, err := runSolver("is1", g, a, solve.Options{ModuleReuse: true, SkipFloorplan: true})
			if err != nil {
				return nil, err
			}
			is5, err := runSolver("is5", g, a, solve.Options{ModuleReuse: true, SkipFloorplan: true})
			if err != nil {
				return nil, err
			}
			pt.GapPA += gap(pa.Makespan)
			pt.GapPAR += gap(par.Makespan)
			pt.GapIS1 += gap(is1.Makespan)
			pt.GapIS5 += gap(is5.Makespan)
			pt.N++
		}
		f := float64(pt.N)
		pt.GapPA /= f
		pt.GapPAR /= f
		pt.GapIS1 /= f
		pt.GapIS5 /= f
		out = append(out, pt)
	}
	return out, nil
}

// WriteOptGap renders the gaps.
func WriteOptGap(w io.Writer, points []OptGapPoint) {
	fprintf(w, "OPTIMALITY GAPS — heuristics vs exhaustive non-delay reference\n")
	fprintf(w, "%8s %8s %8s %10s %10s %10s %10s\n",
		"# Tasks", "N", "proven", "PA", "PA-R", "IS-1", "IS-5")
	for _, p := range points {
		fprintf(w, "%8d %8d %8d %+9.1f%% %+9.1f%% %+9.1f%% %+9.1f%%\n",
			p.Tasks, p.N, p.Proven, p.GapPA, p.GapPAR, p.GapIS1, p.GapIS5)
	}
}
