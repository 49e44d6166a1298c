// Package sched implements the paper's contribution: PA, a deterministic
// eight-phase scheduling heuristic for task graphs on partially
// reconfigurable FPGA-based SoCs (§V), and PA-R, its randomized variant
// (§VI). Both produce schedules validated by package schedule and
// floorplanned by package floorplan.
package sched

import (
	"errors"
	"fmt"
	"math/rand"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/floorplan"
	"resched/internal/obs"
	"resched/internal/resources"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// Typed failure classes of the schedulers. All are errors.Is-able through
// any wrapping the schedulers (and the robust ladder above them) apply.
var (
	// ErrFloorplanInfeasible marks a scheduler giving up because no
	// floorplan-feasible schedule was found within its retry policy. It is
	// floorplan.ErrInfeasible re-exported at the scheduler API; isk wraps
	// the same sentinel, so one errors.Is target covers every scheduler.
	ErrFloorplanInfeasible = floorplan.ErrInfeasible
	// ErrBudgetExhausted is budget.ErrExhausted re-exported at the
	// scheduler API: it matches any budget failure (cancellation, deadline
	// or node cap) wrapped by PA, PA-R or IS-k.
	ErrBudgetExhausted = budget.ErrExhausted
	// ErrNoSoftwareFallback marks the all-software schedule as unavailable:
	// some task has no software implementation (violating §III's
	// assumption), or the architecture has no processors to run one on.
	ErrNoSoftwareFallback = errors.New("no all-software fallback")
)

// Options tune a single deterministic scheduling run.
type Options struct {
	// ModuleReuse enables the paper's future-work extension: consecutive
	// tasks in a region sharing an implementation name skip the
	// reconfiguration between them.
	ModuleReuse bool
	// SkipFloorplan omits the feasibility check (phase 8). Without it a
	// schedule the floorplanner rejects restarts on a virtually shrunk
	// device (§V-H, floorplan.Restart). The randomized scheduler skips it
	// for its inner runs and floorplans only promising solutions
	// (Algorithm 1).
	SkipFloorplan bool
	// Rand, when non-nil, randomizes the non-critical task order in the
	// regions-definition phase (the PA-R inner run).
	Rand *rand.Rand
	// StrictWindows switches region compatibility to the literal
	// window-disjointness reading of §V-C instead of the default
	// slot-insertion test; kept for ablation studies.
	StrictWindows bool
	// NoSWBalance disables the software-task-balancing phase (§V-D);
	// kept for ablation studies.
	NoSWBalance bool
	// Budget, when non-nil, bounds the whole run: it is checked at every
	// attempt and phase boundary and charged per node inside the phase-8
	// floorplan search, so a cancel or deadline lands in milliseconds. On
	// exhaustion Schedule returns an error matching ErrBudgetExhausted.
	Budget *budget.Budget
	// Faults, when armed, is forwarded to the floorplanner to drive failure
	// paths deterministically in tests.
	Faults *faultinject.Set
	// Trace, when non-nil, records spans for the run, each shrink-retry
	// attempt (annotated with the shrunk capacity vector) and each of the
	// eight phases, plus retry counters (package obs). A nil trace is a
	// no-op, and recording never influences scheduling decisions: traced
	// and untraced runs produce identical schedules.
	Trace *obs.Trace

	// Initial, when non-nil and non-empty, is the warm platform state an
	// epoch re-plan starts from: release floors from frozen predecessors,
	// busy-until times on processors and reconfiguration controllers, and
	// pre-existing regions (possibly mid-reconfiguration with a pinned
	// task). Tail region i of the result corresponds to Initial.Regions[i].
	// A nil or empty state reproduces the historical t=0 solve exactly.
	// The state is only read, never retained or mutated.
	Initial *schedule.PlatformState

	// FloorplanHint, when non-empty, is a warm-start candidate for phase 8:
	// before searching, the hint rectangles are verified against the run's
	// region requirements (floorplan.Verify), and when they fit, the
	// floorplan search is skipped entirely and the hint becomes the
	// placement. A hint that does not verify — wrong region count, overlap,
	// short on resources — is ignored and the normal search runs, so the
	// hint can only change *which* feasible placement is returned, never
	// whether the schedule is feasible. The scheduling phases 1–7 do not
	// read it: task assignments and the makespan are hint-independent.
	// The hint slice is only read, never retained or mutated.
	FloorplanHint []floorplan.Placement

	// scratch is the working state the pipeline runs in. Schedule draws
	// one from the state pool when it is nil and keeps it across its
	// shrink retries; PA-R workers set their own so buffers survive across
	// iterations. A scratch must never be shared between goroutines.
	scratch *state
}

// Stats reports how a PA run went: its scheduling time is phases 1–7, its
// floorplanning time phase 8.
type Stats = floorplan.RestartStats

// Schedule runs the deterministic PA heuristic on the instance and returns
// a complete, floorplan-feasible schedule.
func Schedule(g *taskgraph.Graph, a *arch.Architecture, opts Options) (*schedule.Schedule, *Stats, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, nil, err
	}
	run := opts.Trace.Start("pa.run")
	defer run.End()
	if opts.scratch == nil {
		opts.scratch = getState()
		defer putState(opts.scratch)
	}
	var sch *schedule.Schedule
	stats, err := floorplan.Restart{
		Name:      "pa",
		QuerySpan: "pa.phase8.floorplan",
		Arch:      a,
		Skip:      opts.SkipFloorplan,
		Hint:      opts.FloorplanHint,
		Budget:    opts.Budget,
		Faults:    opts.Faults,
		Trace:     opts.Trace,
	}.Run(func(maxRes resources.Vector) (regionRes []resources.Vector, err error) {
		sch, regionRes, err = runPipeline(g, a, maxRes, opts)
		return regionRes, err
	})
	if err != nil {
		return nil, nil, err
	}
	// How many attempts the instance needed and how many reconfigurations
	// the accepted schedule carries. Values, not times: they must be
	// bit-identical across repeated runs.
	opts.Trace.Observe("pa.attempts", float64(stats.Attempts))
	opts.Trace.Observe("pa.reconfigurations", float64(len(sch.Reconfs)))
	return sch, &stats, nil
}

// runPipeline executes phases 1–7 on opts.scratch and assembles the
// schedule. The returned regionRes slice aliases the scratch and is only
// valid until the next pipeline run on it (the caller hands it to the
// floorplanner before retrying).
func runPipeline(g *taskgraph.Graph, a *arch.Architecture, maxRes resources.Vector, opts Options) (*schedule.Schedule, []resources.Vector, error) {
	s := opts.scratch
	s.reset(g, a, maxRes)
	s.strict = opts.StrictWindows
	full0, incremental0 := s.cpmWS.Passes()
	defer func() {
		full, incremental := s.cpmWS.Passes()
		opts.Trace.Count("pa.retime_full", full-full0)
		opts.Trace.Count("pa.retime_incremental", incremental-incremental0)
	}()
	warm := opts.Initial != nil && !opts.Initial.Empty()
	if warm {
		if err := s.seedWarm(opts.Initial); err != nil {
			return nil, nil, err
		}
	}

	// checkBudget bounds how late a cancel can land: one phase at most.
	// The check never influences scheduling decisions — it either aborts
	// the run or changes nothing — so determinism is preserved.
	checkBudget := func() error {
		if err := opts.Budget.Check(); err != nil {
			return fmt.Errorf("sched: pipeline aborted: %w", err)
		}
		return nil
	}

	// Phase 1: implementation selection.
	sp := opts.Trace.Start("pa.phase1.implselect")
	s.selectImplementations()
	if warm {
		// Committed reconfigurations already load specific bitstreams:
		// pinned tasks keep them regardless of the cost model.
		s.applyPins()
	}
	sp.End()
	if err := checkBudget(); err != nil {
		return nil, nil, err
	}
	// Phase 2: critical path extraction.
	sp = opts.Trace.Start("pa.phase2.criticalpath")
	if err := s.retime(); err != nil {
		sp.End()
		return nil, nil, err
	}
	if cap(s.critBuf) < g.N() {
		s.critBuf = make([]bool, g.N())
	}
	isCritical := s.critBuf[:g.N()]
	for t := range isCritical {
		isCritical[t] = s.critical(t)
	}
	sp.End()
	if err := checkBudget(); err != nil {
		return nil, nil, err
	}
	if warm {
		// Pinned tasks are frozen facts, not decisions: commit them into
		// their warm regions before the regions-definition walk.
		if err := s.placePinned(); err != nil {
			return nil, nil, err
		}
	}
	// Phase 3: regions definition.
	sp = opts.Trace.Start("pa.phase3.regions")
	if err := s.defineRegions(s.hwOrder(isCritical, opts.Rand), isCritical); err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.End(obs.Int("regions", int64(len(s.regions))))
	if err := checkBudget(); err != nil {
		return nil, nil, err
	}
	// Phase 4: software task balancing.
	if !opts.NoSWBalance {
		sp = opts.Trace.Start("pa.phase4.swbalance")
		if err := s.balanceSoftware(); err != nil {
			sp.End()
			return nil, nil, err
		}
		sp.End()
	}
	if err := checkBudget(); err != nil {
		return nil, nil, err
	}
	// Phase 5 is implicit: retime fixes T_START = T_MIN (§V-E).
	sp = opts.Trace.Start("pa.phase5.starttimes")
	if err := s.retime(); err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.End()
	if err := checkBudget(); err != nil {
		return nil, nil, err
	}
	// Phase 6: software task mapping.
	sp = opts.Trace.Start("pa.phase6.swmap")
	if err := s.mapSoftware(); err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.End()
	if err := checkBudget(); err != nil {
		return nil, nil, err
	}
	// Phase 7: reconfigurations scheduling.
	sp = opts.Trace.Start("pa.phase7.reconf")
	rts, err := s.scheduleReconfigs(opts.ModuleReuse)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.End(obs.Int("reconfigurations", int64(len(rts))))
	sch := s.emit(rts, opts)
	regionRes := s.regionResBuf[:0]
	for _, r := range s.regions {
		regionRes = append(regionRes, r.res)
	}
	s.regionResBuf = regionRes
	return sch, regionRes, nil
}

// emit assembles the schedule.Schedule from the final state.
func (s *state) emit(rts []*reconfTask, opts Options) *schedule.Schedule {
	sch := schedule.New(s.g, s.a)
	if opts.Rand != nil {
		sch.Algorithm = "PA-R"
	} else {
		sch.Algorithm = "PA"
	}
	sch.ModuleReuse = opts.ModuleReuse
	for _, r := range s.regions {
		sch.AddRegion(r.res)
	}
	for t := 0; t < s.g.N(); t++ {
		target := schedule.Target{Kind: schedule.OnProcessor, Index: s.procOf[t]}
		if s.isHW(t) {
			target = schedule.Target{Kind: schedule.OnRegion, Index: s.regionOf[t]}
		}
		sch.Tasks[t] = schedule.Assignment{
			Impl:   s.impl[t],
			Target: target,
			Start:  s.start(t),
			End:    s.end(t),
		}
	}
	for _, rt := range rts {
		sch.Reconfs = append(sch.Reconfs, schedule.Reconfiguration{
			Region:  rt.region.id,
			InTask:  rt.in,
			OutTask: rt.out,
			Start:   rt.start,
			End:     rt.end,
		})
	}
	sch.ComputeMakespan()
	return sch
}
