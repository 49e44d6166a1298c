// Package solve is the unified solver engine: one Request/Solver/Result
// contract in front of every scheduling algorithm in the repository — the
// deterministic PA heuristic (§V), the randomized PA-R search (§VI), the
// IS-k MILP baseline (ref [6]), the exhaustive non-delay reference and the
// robust degradation ladder.
//
// The paper evaluates its schedulers head-to-head on identical problem
// instances; the related integrated-optimization line treats "which solver"
// as a pluggable policy over a fixed instance. This package encodes that
// view: a solve.Request carries the instance (graph + architecture) plus
// one Options struct with every cross-cutting concern (budget, tracing,
// fault injection, seed, workers, iteration cap), a solve.Solver
// turns a Request into a solve.Result, and a deterministic registry maps
// stable names ("pa", "par", "is1", "is5", "exact", "robust") to solvers so
// frontends — the pasched CLI, the experiments harness, batch servers,
// sharded sweeps — dispatch by name instead of re-implementing a switch
// over the algorithm packages.
//
// The algorithm packages (internal/sched, internal/isk) keep their native
// APIs; the pa, par, is1 and is5 solvers here are thin adapters that
// translate Options into each package's option struct and normalize the
// heterogeneous stats into one Result. The two composite solvers are built
// here too, from the same request: exact is IS-k with one exhaustive window
// over the whole graph, and robust runs the pa and par adapters in turn
// before the all-software fallback. Constructing more than one algorithm's
// raw option struct outside this package is a solvecheck violation
// (internal/analyze): dispatch lives here, once.
package solve

import (
	"time"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/floorplan"
	"resched/internal/obs"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// Options carries every cross-cutting solver knob. Each solver reads the
// subset it understands and ignores the rest, so one Options value can
// drive any registered solver over the same instance — the property the
// experiments harness and the CLI dispatch rely on. The zero value asks
// for the historical defaults of every algorithm.
//
// Options holds no search cap. The caps that end one search early — a
// floorplan query, an IS-k window, the exact reference — are algorithm
// constants (budget.FloorplanNodes and its siblings). The one node limit a
// caller sets is a request cap: a Budget with a node cap (budget.Options.
// MaxNodes, or Budget.WithNodes under a parent budget), which counts the
// nodes of the whole solve, whatever the solver.
type Options struct {
	// ModuleReuse enables module reuse in every solver that supports it.
	ModuleReuse bool
	// SkipFloorplan omits the floorplan feasibility loop in the solvers
	// that run one (PA, IS-k). PA-R always floorplans improving solutions,
	// the robust ladder always floorplans its search rungs and the exact
	// reference never floorplans; all three ignore it.
	SkipFloorplan bool

	// Seed drives the seeded randomization of PA-R (and the robust
	// ladder's PA-R rung). Deterministic solvers ignore it.
	Seed int64
	// Workers sets PA-R's search parallelism, also in the robust ladder's
	// PA-R rung (0 = GOMAXPROCS, 1 = one worker on the calling goroutine).
	// Other solvers ignore it.
	Workers int
	// TimeBudget is PA-R's wall-clock search budget (timeToRun of
	// Algorithm 1) and the robust ladder's PA-R rung budget.
	TimeBudget time.Duration
	// MaxIterations caps PA-R's inner runs (and the ladder's PA-R rung);
	// 0 means unlimited (TimeBudget or Budget must then bound the search).
	MaxIterations int

	// Budget, when non-nil, bounds the whole solve: deadline, cumulative
	// node cap and cooperative cancellation thread through every layer of
	// every registered solver.
	Budget *budget.Budget
	// Faults, when armed, drives deterministic failure injection through
	// the floorplanner of every solver.
	Faults *faultinject.Set
	// Trace, when non-nil, records the solver's span taxonomy (package
	// obs). A nil trace is a no-op and tracing never perturbs schedules.
	Trace *obs.Trace

	// Initial, when non-nil and non-empty, is the warm platform state the
	// solve starts from: region loadout, busy-until floors, in-flight
	// reconfigurations and per-task release floors left behind by a
	// committed schedule prefix (schedule.PlatformState, produced by
	// schedule.Freeze). PA, PA-R, IS-k and the robust ladder schedule the
	// tail from this state; the exact reference rejects a non-empty state
	// (it enumerates cold schedules only). A nil or Empty state is the
	// historical t=0 solve, bit-identical to omitting the field.
	Initial *schedule.PlatformState

	// InitialIncumbent warm-starts the randomized search (PA-R and the
	// robust ladder's PA-R rung) with a known-good schedule of this exact
	// instance: candidates must beat its makespan before any floorplan
	// query is spent (sched.RandomOptions.InitialIncumbent). Deterministic
	// solvers ignore it. internal/schedcache injects it on near-miss cache
	// lookups; callers setting it by hand own the compatibility claim.
	InitialIncumbent *schedule.Schedule
	// FloorplanHint warm-starts the phase-8 feasibility check of the
	// floorplanning solvers that run the PA pipeline (pa, and the robust
	// ladder's PA rung): a hint that verifies against the run's regions
	// skips the floorplan search; one that does not is ignored
	// (sched.Options.FloorplanHint). Other solvers ignore it.
	FloorplanHint []floorplan.Placement
}

// Request is one scheduling problem instance plus the unified options.
type Request struct {
	Graph *taskgraph.Graph
	Arch  *arch.Architecture
	Options
}

// Solver turns a Request into a Result. Implementations must be stateless
// and safe for concurrent Solve calls: every registered solver is a pure
// function of the request (plus the seed for the randomized ones).
type Solver interface {
	// Name is the stable registry name ("pa", "is5", ...).
	Name() string
	// Solve runs the algorithm on the instance.
	Solve(*Request) (*Result, error)
}
