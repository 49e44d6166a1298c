package experiments

import (
	"fmt"
	"io"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/solve"
)

// ParallelismConfig drives the DAG-shape study. The paper observes that
// "the improvements achieved by PA-R with respect to IS-5 are more
// restrained when either the taskgraph exposes a reduced level of
// parallelism or, at the opposite, when a great proportion of the
// application tasks can be executed in parallel"; this experiment sweeps
// the DAG depth at a fixed task count to chart that.
type ParallelismConfig struct {
	// Seed generates the instances (default 2016).
	Seed int64
	// Tasks is the fixed task count (default 40).
	Tasks int
	// Instances per shape (default 4).
	Instances int
	// Layers are the DAG depths to sweep; fewer layers = more parallelism
	// (default: near-chain to near-parallel).
	Layers []int
	// ParBudget is PA-R's time budget per instance (default 60 ms).
	ParBudget time.Duration
	// Workers bounds how many (shape, instance) evaluations run
	// concurrently (0 or 1 = sequential). Aggregation order is fixed by
	// instance index regardless of completion order, so the reported means
	// are identical at any worker count.
	Workers int
}

// ParallelismPoint is the aggregate for one DAG shape.
type ParallelismPoint struct {
	Layers int
	// WidthRatio is tasks/layers — the average parallelism degree.
	WidthRatio float64
	// Mean makespans.
	MeanPAR, MeanIS5 float64
	// PARvsIS5Pct is the mean paired improvement of PA-R over IS-5.
	PARvsIS5Pct float64
}

// RunParallelism sweeps DAG shapes and reports PA-R's improvement.
func RunParallelism(cfg ParallelismConfig) ([]ParallelismPoint, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 2016
	}
	if cfg.Tasks == 0 {
		cfg.Tasks = 40
	}
	if cfg.Instances == 0 {
		cfg.Instances = 4
	}
	if len(cfg.Layers) == 0 {
		cfg.Layers = []int{30, 16, 9, 4, 2}
	}
	if cfg.ParBudget == 0 {
		cfg.ParBudget = 60 * time.Millisecond
	}
	for _, layers := range cfg.Layers {
		if layers < 1 || layers > cfg.Tasks {
			return nil, fmt.Errorf("experiments: layer count %d out of [1, %d]", layers, cfg.Tasks)
		}
	}
	a := arch.ZedBoard()

	// One job per (shape, instance) pair; results land in indexed slots so
	// the sums below always accumulate in instance order, keeping the
	// reported means bit-identical at any worker count.
	type shapeResult struct {
		par, is5 int64
		err      error
	}
	jobs := len(cfg.Layers) * cfg.Instances
	results := make([]shapeResult, jobs)
	runJob := func(j int) {
		layers := cfg.Layers[j/cfg.Instances]
		idx := j % cfg.Instances
		g, err := benchgen.Generate(benchgen.Config{
			Tasks:  cfg.Tasks,
			Seed:   cfg.Seed + int64(idx),
			Layers: layers,
		})
		if err != nil {
			results[j].err = err
			return
		}
		is5, err := runSolver("is5", g, a, solve.Options{ModuleReuse: true})
		if err != nil {
			results[j].err = fmt.Errorf("parallelism layers=%d: IS-5: %w", layers, err)
			return
		}
		par, err := runSolver("par", g, a, solve.Options{
			TimeBudget: cfg.ParBudget, Seed: cfg.Seed + int64(idx),
		})
		if err != nil {
			results[j].err = fmt.Errorf("parallelism layers=%d: PA-R: %w", layers, err)
			return
		}
		results[j].par, results[j].is5 = par.Makespan, is5.Makespan
	}
	forEachIndex(jobs, cfg.Workers, func(j int) bool {
		runJob(j)
		return true
	})

	var out []ParallelismPoint
	for li, layers := range cfg.Layers {
		pt := ParallelismPoint{Layers: layers, WidthRatio: float64(cfg.Tasks) / float64(layers)}
		var parSum, isSum, impSum float64
		for idx := 0; idx < cfg.Instances; idx++ {
			r := results[li*cfg.Instances+idx]
			if r.err != nil {
				return nil, r.err
			}
			parSum += float64(r.par)
			isSum += float64(r.is5)
			impSum += 100 * float64(r.is5-r.par) / float64(r.is5)
		}
		n := float64(cfg.Instances)
		pt.MeanPAR = parSum / n
		pt.MeanIS5 = isSum / n
		pt.PARvsIS5Pct = impSum / n
		out = append(out, pt)
	}
	return out, nil
}

// WriteParallelism renders the sweep.
func WriteParallelism(w io.Writer, points []ParallelismPoint) {
	fprintf(w, "PARALLELISM SWEEP — PA-R vs IS-5 across DAG shapes (fixed task count)\n")
	fprintf(w, "%8s %12s %12s %12s %14s\n", "layers", "width", "PA-R", "IS-5", "PA-R vs IS-5")
	for _, p := range points {
		fprintf(w, "%8d %12.1f %12.0f %12.0f %+13.1f%%\n",
			p.Layers, p.WidthRatio, p.MeanPAR, p.MeanIS5, p.PARvsIS5Pct)
	}
}
