package sched

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/floorplan"
	"resched/internal/obs"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// Typed failure classes of the degradation ladder. All are errors.Is-able
// through any wrapping the schedulers apply.
var (
	// ErrFloorplanInfeasible marks a scheduler giving up because no
	// floorplan-feasible schedule was found within its retry policy. It is
	// floorplan.ErrInfeasible re-exported at the scheduler API; isk wraps
	// the same sentinel, so one errors.Is target covers every scheduler.
	ErrFloorplanInfeasible = floorplan.ErrInfeasible
	// ErrBudgetExhausted is budget.ErrExhausted re-exported at the
	// scheduler API: it matches any budget failure (cancellation, deadline
	// or node cap) wrapped by PA, PA-R, IS-k or the ladder.
	ErrBudgetExhausted = budget.ErrExhausted
	// ErrNoSoftwareFallback marks the bottom rung as unavailable: some task
	// has no software implementation (violating §III's assumption), or the
	// architecture has no processors to run one on.
	ErrNoSoftwareFallback = errors.New("no all-software fallback")
)

// Rung identifies which level of the degradation ladder produced a schedule.
type Rung int

const (
	// Full: the deterministic PA heuristic succeeded on the first attempt.
	Full Rung = iota
	// Retried: PA succeeded after §V-H shrink-and-restart retries.
	Retried
	// Randomized: PA failed, but the budgeted PA-R search found a
	// floorplan-feasible schedule.
	Randomized
	// SoftwareOnly: every search rung failed (or the budget ran dry); the
	// guaranteed all-software list schedule was emitted — processors only,
	// no regions, no reconfigurations.
	SoftwareOnly
)

// String names the rung.
func (r Rung) String() string {
	switch r {
	case Full:
		return "full"
	case Retried:
		return "retried"
	case Randomized:
		return "randomized"
	case SoftwareOnly:
		return "software-only"
	default:
		return fmt.Sprintf("Rung(%d)", int(r))
	}
}

// RobustOptions tune the degradation ladder.
type RobustOptions struct {
	// ModuleReuse is forwarded to every search rung.
	ModuleReuse bool
	// RandomIterations caps the PA-R rung's inner runs (default 32 when
	// neither it nor RandomTime is set, keeping the rung deterministic).
	RandomIterations int
	// RandomTime optionally bounds the PA-R rung by wall-clock instead.
	RandomTime time.Duration
	// RandomSeed seeds the PA-R rung (default 1).
	RandomSeed int64
	// Arena, when non-nil, is the reusable scratch space for the PA rung
	// (see Options.Arena); the PA-R rung keeps its own per-worker arenas.
	Arena *Arena
	// Budget bounds the whole ladder. When it runs dry the search rungs are
	// abandoned and the ladder drops straight to the software-only rung,
	// which needs no search.
	Budget *budget.Budget
	// Faults, when armed, drives failure paths in every rung.
	Faults *faultinject.Set
	// Trace records a robust.run span annotated with the armed faults and
	// the rung that fired, plus the usual per-rung scheduler spans.
	Trace *obs.Trace
	// Initial, when non-nil and non-empty, is the warm platform state every
	// rung schedules from (see Options.Initial). The software-only rung
	// honours it too: release and processor floors apply, and pinned tasks
	// execute in their regions.
	Initial *schedule.PlatformState
	// FloorplanHint warm-starts the PA rung's phase-8 feasibility check
	// (see Options.FloorplanHint); an unverifiable hint is ignored.
	FloorplanHint []floorplan.Placement
	// InitialIncumbent warm-starts the PA-R rung (see
	// RandomOptions.InitialIncumbent). The PA rung runs first regardless:
	// the ladder's rung order is part of its contract.
	InitialIncumbent *schedule.Schedule
}

func (o RobustOptions) withDefaults() RobustOptions {
	if o.RandomIterations == 0 && o.RandomTime == 0 {
		o.RandomIterations = 32
	}
	if o.RandomSeed == 0 {
		o.RandomSeed = 1
	}
	return o
}

// Result is the outcome of a Robust run.
type Result struct {
	// Schedule is the emitted schedule; always non-nil when the error is
	// nil.
	Schedule *schedule.Schedule
	// Rung tells which ladder level produced the schedule.
	Rung Rung
	// Reasons chains the failures of the rungs above the one that fired,
	// in ladder order; inspect with errors.Is (ErrFloorplanInfeasible,
	// ErrBudgetExhausted, ...). Empty when the first rung succeeded.
	Reasons []error
	// Placements holds the floorplan of the final schedule's regions; empty
	// for the software-only rung, which uses none.
	Placements []floorplan.Placement
	// Stats carries the PA rung's statistics when that rung fired.
	Stats *Stats
}

// Robust runs the degradation ladder: PA (with its §V-H shrink retries) →
// budgeted PA-R → the guaranteed all-software list schedule. It returns the
// first schedule a rung produces; the only way it fails is a graph no rung
// can schedule — a dependency cycle, or a task without a software
// implementation once the search rungs are out (ErrNoSoftwareFallback).
// Whenever every task has a software implementation and at least one
// processor exists, Robust returns a valid schedule and nil error, no
// matter which faults or budgets are in force.
func Robust(g *taskgraph.Graph, a *arch.Architecture, opts RobustOptions) (*Result, error) {
	opts = opts.withDefaults()
	run := opts.Trace.Start("robust.run",
		obs.Str("faults", strings.Join(opts.Faults.Armed(), ",")))
	defer run.End()

	res := &Result{}
	fail := func(rung Rung, err error) {
		res.Reasons = append(res.Reasons, fmt.Errorf("%v rung: %w", rung, err))
		opts.Trace.Count("robust.rung_failures", 1)
		// Rung transitions go to the flight recorder: a degraded service
		// explains which rungs it fell through and why.
		opts.Trace.Event("robust.rung_failed",
			obs.Str("rung", rung.String()), obs.Str("reason", err.Error()))
	}
	done := func(rung Rung) (*Result, error) {
		res.Rung = rung
		run.Annotate(obs.Str("rung", rung.String()))
		opts.Trace.Event("robust.rung_selected",
			obs.Str("rung", rung.String()), obs.Int("failures_above", int64(len(res.Reasons))))
		return res, nil
	}

	// Rungs 1+2: deterministic PA with shrink retries.
	sch, stats, err := Schedule(g, a, Options{
		ModuleReuse:   opts.ModuleReuse,
		Arena:         opts.Arena,
		Initial:       opts.Initial,
		FloorplanHint: opts.FloorplanHint,
		Budget:        opts.Budget, Faults: opts.Faults, Trace: opts.Trace,
	})
	if err == nil {
		res.Schedule, res.Stats, res.Placements = sch, stats, stats.Placements
		if stats.Retries > 0 {
			return done(Retried)
		}
		return done(Full)
	}
	fail(Full, err)

	// Rung 3: budgeted PA-R, skipped when the budget is already dry (it
	// could only fail the same way) or when PA failed structurally — a
	// validation error that re-running the pipeline cannot fix.
	structural := isStructural(g, a, err)
	if berr := opts.Budget.Check(); berr != nil {
		fail(Randomized, berr)
	} else if structural {
		fail(Randomized, errSkippedStructural)
	} else {
		sch, _, rerr := RSchedule(g, a, RandomOptions{
			TimeBudget: opts.RandomTime, MaxIterations: opts.RandomIterations,
			Seed: opts.RandomSeed, ModuleReuse: opts.ModuleReuse,
			Budget:           opts.Budget,
			Initial:          opts.Initial,
			InitialIncumbent: opts.InitialIncumbent,
			Faults:           opts.Faults, Trace: opts.Trace,
		})
		if rerr == nil {
			res.Schedule = sch
			return done(Randomized)
		}
		fail(Randomized, rerr)
	}

	// Rung 4: the guaranteed fallback. Needs no fabric, no floorplan and no
	// search, so budgets and injected faults cannot touch it.
	sw, serr := SoftwareOnlyScheduleFrom(g, a, opts.Initial)
	if serr != nil {
		fail(SoftwareOnly, serr)
		return res, fmt.Errorf("sched: robust ladder exhausted: %w", serr)
	}
	res.Schedule = sw
	return done(SoftwareOnly)
}

// errSkippedStructural documents a skipped PA-R rung in the reason chain.
var errSkippedStructural = errors.New("skipped: deterministic failure was structural, not search-related")

// isStructural reports whether the PA failure would repeat identically on
// any rerun: instance validation errors, as opposed to floorplan
// infeasibility or budget exhaustion, which a different search might avoid.
func isStructural(g *taskgraph.Graph, a *arch.Architecture, err error) bool {
	if errors.Is(err, ErrFloorplanInfeasible) || errors.Is(err, ErrBudgetExhausted) {
		return false
	}
	return g.Validate() != nil || a.Validate() != nil
}

// SoftwareOnlySchedule builds the ladder's bottom rung directly: every task
// on its fastest software implementation, list-scheduled over the
// processors in topological order with earliest-finish processor selection.
// Under §III's assumptions (every task has a software implementation, at
// least one processor) this always succeeds — no fabric, regions or
// reconfigurations are involved, so there is nothing to floorplan and
// nothing to search. The result is deliberately conservative: a feasible
// anchor, not a competitive makespan.
func SoftwareOnlySchedule(g *taskgraph.Graph, a *arch.Architecture) (*schedule.Schedule, error) {
	return SoftwareOnlyScheduleFrom(g, a, nil)
}

// ReasonSummary renders the reason chain compactly for CLI output.
func (r *Result) ReasonSummary() string {
	if len(r.Reasons) == 0 {
		return ""
	}
	parts := make([]string, len(r.Reasons))
	for i, e := range r.Reasons {
		parts[i] = e.Error()
	}
	return strings.Join(parts, "; ")
}
