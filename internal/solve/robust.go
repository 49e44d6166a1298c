package solve

import (
	"errors"
	"fmt"
	"strings"

	"resched/internal/obs"
	"resched/internal/sched"
)

// robustSolver is the degradation ladder: PA (with its §V-H shrink retries)
// → budgeted PA-R → the guaranteed all-software list schedule. It returns
// the first schedule a rung produces, with the rung's own Result and a
// LadderStats block. The search rungs are the pa and par adapters, called
// directly so the registry records one solve.robust request, not three.
// The ladder reads the request as those solvers do, with three differences:
// both search rungs floorplan (SkipFloorplan is ignored); the PA-R rung runs
// 32 iterations when neither MaxIterations nor TimeBudget is set; and it
// uses seed 1 when Seed is 0. The last two keep the rung bounded and
// deterministic.
//
// The only way the ladder fails is a graph no rung can schedule — a
// dependency cycle, or a task without a software implementation once the
// search rungs are out (sched.ErrNoSoftwareFallback). Whenever every task
// has a software implementation and at least one processor exists, it
// returns a valid schedule and nil error, whatever faults or budgets are in
// force.
type robustSolver struct{}

func (robustSolver) Name() string { return "robust" }

func (robustSolver) Solve(req *Request) (*Result, error) {
	tr := req.Trace
	run := tr.Start("robust.run", obs.Str("faults", strings.Join(req.Faults.Armed(), ",")))
	defer run.End()

	var reasons []string
	fail := func(rung Rung, err error) {
		reasons = append(reasons, fmt.Sprintf("%v rung: %v", rung, err))
		tr.Count("robust.rung_failures", 1)
		// Rung transitions go to the flight recorder: a degraded service
		// explains which rungs it fell through and why.
		tr.Event("robust.rung_failed", obs.Str("rung", rung.String()), obs.Str("reason", err.Error()))
	}
	done := func(res *Result, rung Rung) (*Result, error) {
		run.Annotate(obs.Str("rung", rung.String()))
		tr.Event("robust.rung_selected",
			obs.Str("rung", rung.String()), obs.Int("failures_above", int64(len(reasons))))
		res.Ladder = &LadderStats{
			Rung:     rung,
			Degraded: len(reasons) > 0,
			Reasons:  strings.Join(reasons, "; "),
		}
		return res, nil
	}

	// Rungs 1+2: deterministic PA with shrink retries.
	rung := *req
	rung.SkipFloorplan = false
	res, err := paSolver{}.Solve(&rung)
	if err == nil {
		if res.Retries > 0 {
			return done(res, Retried)
		}
		return done(res, Full)
	}
	fail(Full, err)

	// Rung 3: budgeted PA-R, skipped when the budget is already dry (it
	// could only fail the same way) or when PA failed structurally — a
	// validation error that re-running the pipeline cannot fix.
	if berr := req.Budget.Check(); berr != nil {
		fail(Randomized, berr)
	} else if isStructural(req, err) {
		fail(Randomized, errSkippedStructural)
	} else {
		if rung.MaxIterations == 0 && rung.TimeBudget == 0 {
			rung.MaxIterations = 32
		}
		if rung.Seed == 0 {
			rung.Seed = 1
		}
		res, err := parSolver{}.Solve(&rung)
		if err == nil {
			return done(res, Randomized)
		}
		fail(Randomized, err)
	}

	// Rung 4: the guaranteed fallback. Needs no fabric, no floorplan and no
	// search, so budgets and injected faults cannot touch it.
	sw, err := sched.SoftwareOnlyScheduleFrom(req.Graph, req.Arch, req.Initial)
	if err != nil {
		fail(SoftwareOnly, err)
		return nil, fmt.Errorf("solve: robust ladder exhausted: %w", err)
	}
	return done(&Result{Schedule: sw, Makespan: sw.Makespan}, SoftwareOnly)
}

// errSkippedStructural documents a skipped PA-R rung in the reason chain.
var errSkippedStructural = errors.New("skipped: deterministic failure was structural, not search-related")

// isStructural reports whether the PA failure would repeat identically on
// any rerun: instance validation errors, as opposed to floorplan
// infeasibility or budget exhaustion, which a different search might avoid.
func isStructural(req *Request, err error) bool {
	if errors.Is(err, sched.ErrFloorplanInfeasible) || errors.Is(err, sched.ErrBudgetExhausted) {
		return false
	}
	return req.Graph.Validate() != nil || req.Arch.Validate() != nil
}
