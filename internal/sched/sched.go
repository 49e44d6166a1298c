// Package sched implements the paper's contribution: PA, a deterministic
// eight-phase scheduling heuristic for task graphs on partially
// reconfigurable FPGA-based SoCs (§V), and PA-R, its randomized variant
// (§VI). Both produce schedules validated by package schedule and
// floorplanned by package floorplan.
package sched

import (
	"fmt"
	"math/rand"
	"time"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/floorplan"
	"resched/internal/obs"
	"resched/internal/resources"
	"resched/internal/schedule"
	"resched/internal/taskgraph"
)

// Options tune a single deterministic scheduling run.
type Options struct {
	// ModuleReuse enables the paper's future-work extension: consecutive
	// tasks in a region sharing an implementation name skip the
	// reconfiguration between them.
	ModuleReuse bool
	// SkipFloorplan omits the feasibility check (phase 8). The randomized
	// scheduler uses this for its inner runs and floorplans only promising
	// solutions (Algorithm 1).
	SkipFloorplan bool
	// Floorplan configures the phase-8 feasibility query.
	Floorplan floorplan.Options
	// MaxRetries bounds the shrink-and-restart loop of §V-H (default 20).
	MaxRetries int
	// ShrinkFactor is the virtual capacity reduction applied per retry
	// (default 0.93: retries are cheap, so shrink gently).
	ShrinkFactor float64
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
	// Faults, when armed, is forwarded to the floorplanner (and its MILP
	// engine) to drive failure paths deterministically in tests.
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

	// Arena, when non-nil, is the caller-owned reusable scratch space the
	// run executes in, so long-lived callers (a serving worker solving a
	// stream of requests) amortise the working buffers across runs. The
	// arena must not be shared between goroutines or concurrent runs.
	Arena *Arena

	// scratch, when non-nil, is the reusable working arena the pipeline
	// runs in. Repeat callers (shrink retries inside Schedule, PA-R
	// iterations) set it once so buffers survive across runs; a nil scratch
	// makes runPipeline allocate a fresh one. A scratch must never be
	// shared between goroutines.
	scratch *state
}

func (o Options) withDefaults() Options {
	if o.MaxRetries == 0 {
		o.MaxRetries = 20
	}
	if o.ShrinkFactor == 0 {
		o.ShrinkFactor = 0.93
	}
	return o
}

// Stats reports how a scheduling run went; Table I of the paper splits PA's
// execution time into scheduling and floorplanning, which these fields
// regenerate.
type Stats struct {
	// SchedulingTime is the time spent in phases 1–7.
	SchedulingTime time.Duration
	// FloorplanTime is the time spent in phase 8 across all retries.
	FloorplanTime time.Duration
	// Retries counts shrink-and-restart rounds taken (0 = first try).
	Retries int
	// Attempts counts scheduling runs (Retries + 1 on success): the
	// iteration count that makes the CLI report uniform across PA, PA-R
	// and IS-k.
	Attempts int
	// Placements holds the floorplan found for the final schedule's
	// regions (empty when SkipFloorplan).
	Placements []floorplan.Placement
}

// Schedule runs the deterministic PA heuristic on the instance and returns
// a complete, floorplan-feasible schedule.
func Schedule(g *taskgraph.Graph, a *arch.Architecture, opts Options) (*schedule.Schedule, *Stats, error) {
	opts = opts.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, nil, err
	}
	run := opts.Trace.Start("pa.run")
	defer run.End()
	if opts.Floorplan.Trace == nil {
		opts.Floorplan.Trace = opts.Trace
	}
	if opts.Floorplan.Budget == nil {
		opts.Floorplan.Budget = opts.Budget
	}
	if opts.Floorplan.Faults == nil {
		opts.Floorplan.Faults = opts.Faults
	}
	stats := &Stats{}
	if opts.scratch == nil {
		if opts.Arena != nil {
			opts.scratch = &opts.Arena.s
		} else {
			opts.scratch = &state{}
		}
	}
	// observeRun records the run's distributions on success: how many
	// shrink-retry attempts the instance needed and how many
	// reconfigurations the accepted schedule carries. Values, not times —
	// they must be bit-identical across repeated runs.
	observeRun := func(sch *schedule.Schedule) {
		opts.Trace.Observe("pa.attempts", float64(stats.Attempts))
		opts.Trace.Observe("pa.reconfigurations", float64(len(sch.Reconfs)))
	}
	maxRes := a.MaxRes
	// One planner serves every shrink retry: requirements the attempts
	// share keep their sorted candidates and overlap tables.
	var planner *floorplan.Planner
	for attempt := 0; ; attempt++ {
		if err := opts.Budget.Check(); err != nil {
			return nil, nil, fmt.Errorf("sched: PA attempt %d: %w", attempt, err)
		}
		var att *obs.Span
		if opts.Trace.Enabled() {
			att = opts.Trace.Start("pa.attempt",
				obs.Int("attempt", int64(attempt)), obs.Str("maxres", maxRes.String()))
		}
		stats.Attempts++
		begin := time.Now()
		sch, regionRes, err := runPipeline(g, a, maxRes, opts)
		stats.SchedulingTime += time.Since(begin)
		if err != nil {
			att.End(obs.Str("outcome", "error"))
			return nil, nil, err
		}
		if opts.SkipFloorplan {
			att.End(obs.Str("outcome", "unfloorplanned"))
			observeRun(sch)
			return sch, stats, nil
		}
		fabric, err := a.RequireFabric()
		if err != nil {
			att.End(obs.Str("outcome", "error"))
			return nil, nil, fmt.Errorf("sched: floorplanning requested: %w", err)
		}
		if len(opts.FloorplanHint) > 0 && len(opts.FloorplanHint) == len(regionRes) {
			hintBegin := time.Now()
			hintErr := floorplan.Verify(fabric, regionRes, opts.FloorplanHint)
			stats.FloorplanTime += time.Since(hintBegin)
			if hintErr == nil {
				// The hint verified against this run's regions: adopt it as
				// the placement. Copying detaches the result from the
				// caller-owned hint slice.
				stats.Placements = append([]floorplan.Placement(nil), opts.FloorplanHint...)
				opts.Trace.Count("pa.floorplan_hint_used", 1)
				att.End(obs.Str("outcome", "feasible-hint"))
				observeRun(sch)
				return sch, stats, nil
			}
			opts.Trace.Count("pa.floorplan_hint_rejected", 1)
		}
		p8 := opts.Trace.Start("pa.phase8.floorplan")
		fpBegin := time.Now()
		if planner == nil {
			planner = floorplan.NewPlanner(fabric)
		}
		res, err := planner.Solve(regionRes, opts.Floorplan)
		stats.FloorplanTime += time.Since(fpBegin)
		p8.End()
		if err != nil {
			att.End(obs.Str("outcome", "error"))
			return nil, nil, err
		}
		if res.Feasible {
			stats.Placements = res.Placements
			att.End(obs.Str("outcome", "feasible"))
			observeRun(sch)
			return sch, stats, nil
		}
		if attempt >= opts.MaxRetries {
			att.End(obs.Str("outcome", "infeasible"))
			return nil, nil, fmt.Errorf("sched: %w after %d shrink retries", ErrFloorplanInfeasible, attempt)
		}
		// §V-H: restart with virtually reduced FPGA resources.
		stats.Retries++
		opts.Trace.Count("pa.retries", 1)
		att.End(obs.Str("outcome", "infeasible-shrink"))
		for k := range maxRes {
			maxRes[k] = int(float64(maxRes[k]) * opts.ShrinkFactor)
		}
	}
}

// runPipeline executes phases 1–7 and assembles the schedule. The returned
// regionRes slice aliases the scratch arena and is only valid until the next
// pipeline run on the same scratch (the caller hands it to the floorplanner
// before retrying).
func runPipeline(g *taskgraph.Graph, a *arch.Architecture, maxRes resources.Vector, opts Options) (*schedule.Schedule, []resources.Vector, error) {
	s := opts.scratch
	if s == nil {
		s = &state{}
	}
	s.reset(g, a, maxRes)
	s.strict = opts.StrictWindows
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
