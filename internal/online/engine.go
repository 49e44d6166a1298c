package online

import (
	"fmt"
	"sort"
	"time"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/obs"
	"resched/internal/schedule"
	"resched/internal/sim"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

// Config parameterises an Engine. Arch is required; everything else has a
// working zero value.
type Config struct {
	// Arch is the target platform (required).
	Arch *arch.Architecture
	// Solver names the registered solver re-planning every epoch tail
	// (default "pa"). An epoch whose solver fails degrades to the "robust"
	// ladder, which bottoms out in the always-feasible software-only rung.
	Solver string
	// Workers and Seed drive the randomized solvers exactly as in solve:
	// the epoch sequence is a pure function of (trace, Config) for "pa" and
	// of (trace, Config minus Workers) for "par".
	Workers int
	Seed    int64
	// MaxIterations caps each epoch's randomized inner runs (default 8 so
	// an unconfigured "par" epoch terminates without a time budget).
	MaxIterations int
	// ModuleReuse enables module-reuse semantics in every epoch plan.
	ModuleReuse bool
	// DisablePrefetch re-times every epoch tail so reconfigurations are
	// issued only once the data of the task they load is ready — the
	// issue-at-dispatch baseline online systems without prefetching run
	// (sim.ExecuteOnDemand).
	// The default (prefetching on) keeps the solvers' early issue times.
	DisablePrefetch bool
	// EpochNodes, when positive, caps each epoch's re-plan at that many
	// search nodes: the re-plan runs under Budget.WithNodes(EpochNodes), so
	// Budget's deadline, cap and cancellation still reach it.
	EpochNodes int64
	// Budget, when non-nil, bounds the whole run: the epoch loop polls it
	// between epochs and the solvers poll it inside each re-plan.
	Budget *budget.Budget
	// Faults drives deterministic fault injection: late arrivals here,
	// solver faults inside the re-plans.
	Faults *faultinject.Set
	// Trace records the online.* span/counter taxonomy; nil is a no-op.
	Trace *obs.Trace
	// PolishIterations, when positive, runs one final PA-R pass over the
	// last epoch's tail with the stitched plan as incumbent, adopting the
	// result only when it strictly improves the global makespan.
	PolishIterations int
	// Clairvoyant, when set, additionally solves the whole trace offline
	// with full knowledge of all arrivals and reports the makespan gap the
	// online engine pays for not knowing the future.
	Clairvoyant bool
}

func (c Config) withDefaults() Config {
	if c.Solver == "" {
		c.Solver = "pa"
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 8
	}
	if c.Budget == nil && c.EpochNodes > 0 {
		// An unlimited parent for the epoch caps, so an epoch that runs out
		// of nodes still notes it in the trace.
		c.Budget = budget.New(budget.Options{Trace: c.Trace})
	}
	return c
}

// EpochStats is the per-epoch record of one commit-boundary re-plan.
type EpochStats struct {
	// Commit is the boundary instant the epoch re-planned at.
	Commit int64
	// NewJobs counts the jobs that arrived at this boundary.
	NewJobs int
	// FrozenTasks and TailTasks split the global task set at the boundary.
	FrozenTasks, TailTasks int
	// Degraded reports that the configured solver failed and the robust
	// ladder planned this epoch instead.
	Degraded bool
	// Makespan is the stitched global makespan after this epoch.
	Makespan int64
	// PrefetchIssued counts tail reconfigurations issued before the data of
	// the task they load was ready; Hits hid the whole load latency, Misses
	// still exposed some of it.
	PrefetchIssued, PrefetchHits, PrefetchMisses int
	// Stall is the total exposed reconfiguration latency of the tail;
	// StallHidden is how much latency the early issue times hid: the sum
	// over loads of max(duration, exposure) on this plan, minus Stall.
	Stall, StallHidden int64
	// ReplanTime is the wall-clock cost of the re-plan. It is measurement,
	// not output: every other field is deterministic for a fixed config,
	// this one is not.
	ReplanTime time.Duration
}

// Result is the outcome of a finished run.
type Result struct {
	// Schedule is the stitched global schedule over Graph; nil when no job
	// was ever submitted.
	Schedule *schedule.Schedule
	// Graph is the merged global task graph (all jobs, IDs in plan order).
	Graph *taskgraph.Graph
	// Jobs are the planned jobs in plan order with effective (post-fault,
	// post-clamp) arrival times.
	Jobs []Job
	// Release[t] is the effective arrival floor of global task t — the
	// replay floors for sim.ExecuteFrom.
	Release []int64
	// Epochs are the per-epoch records in commit order.
	Epochs []EpochStats
	// JobEnds[j] is the completion time of job j in the stitched schedule;
	// MissedDeadlines lists the jobs (by index) that finished past their
	// deadline.
	JobEnds         []int64
	MissedDeadlines []int
	// LateArrivals counts submissions delayed by an armed late-arrival
	// fault.
	LateArrivals int
	// PolishImproved reports that the final polish pass beat the last
	// epoch's plan and was adopted.
	PolishImproved bool
	// ClairvoyantMakespan and ClairvoyantGap are filled when
	// Config.Clairvoyant is set: the makespan of the offline solve that
	// knew every arrival in advance, and how far the online result is
	// behind it.
	ClairvoyantMakespan, ClairvoyantGap int64
}

// epochCtx is what Finalize's polish pass needs to re-solve and re-stitch
// the last epoch.
type epochCtx struct {
	commit       int64
	h            *schedule.Horizon
	prev         *schedule.Schedule
	global       *taskgraph.Graph
	tailG        *taskgraph.Graph
	ps           *schedule.PlatformState
	tail         *schedule.Schedule
	tailOf       []int
	tailToGlobal []int
}

// Engine is the rolling-horizon driver. It is not safe for concurrent use;
// serving tiers serialise access per session.
type Engine struct {
	cfg     Config
	pending []Job
	jobs    []Job // planned jobs, plan order
	offsets []int // offsets[j] = first global task ID of jobs[j]
	global  *taskgraph.Graph
	arrival []int64 // effective arrival per global task
	plan    *schedule.Schedule
	commit  int64
	epochs  []EpochStats
	last    *epochCtx
	late    int
}

// New validates the config and returns an idle engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Arch == nil {
		return nil, fmt.Errorf("online: Config.Arch is required")
	}
	cfg = cfg.withDefaults()
	if _, err := solve.Get(cfg.Solver); err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	return &Engine{cfg: cfg}, nil
}

// Submit queues one job for the next Run. An armed late-arrival fault
// delays the job past its nominal arrival; arrivals in the committed past
// are clamped to the current commit boundary at plan time (the platform
// cannot retroactively have known about them).
func (e *Engine) Submit(j Job) error {
	if j.Graph == nil {
		return fmt.Errorf("online: job %q has no graph", j.Name)
	}
	if err := j.Graph.Validate(); err != nil {
		return fmt.Errorf("online: job %q: %w", j.Name, err)
	}
	if j.Arrival < 0 {
		return fmt.Errorf("online: job %q arrives at negative time %d", j.Name, j.Arrival)
	}
	if d, ok := e.cfg.Faults.LateArrival(); ok {
		j.Arrival += d
		e.late++
		e.cfg.Trace.Count("online.late_arrivals", 1)
	}
	e.pending = append(e.pending, j)
	return nil
}

// SubmitTrace submits every job of a trace.
func (e *Engine) SubmitTrace(tr *Trace) error {
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			return err
		}
	}
	return nil
}

// Run drains the pending queue: jobs are grouped by effective arrival and
// each distinct arrival instant becomes one epoch — freeze the current plan
// at the boundary, re-plan the tail from the warm platform state, stitch.
// Run may be called repeatedly as more jobs are submitted.
func (e *Engine) Run() error {
	sort.SliceStable(e.pending, func(i, j int) bool {
		return e.pending[i].Arrival < e.pending[j].Arrival
	})
	queue := e.pending
	e.pending = nil
	i := 0
	for { // one epoch per iteration; the run budget is polled every pass
		if err := e.cfg.Budget.Check(); err != nil {
			e.pending = append(queue[i:], e.pending...)
			return fmt.Errorf("online: run stopped after %d epoch(s): %w", len(e.epochs), err)
		}
		if i >= len(queue) {
			return nil
		}
		T := queue[i].Arrival
		if T < e.commit {
			T = e.commit
		}
		var group []Job
		for i < len(queue) {
			a := queue[i].Arrival
			if a < e.commit {
				a = e.commit
			}
			if a != T {
				break
			}
			j := queue[i]
			j.Arrival = a
			group = append(group, j)
			i++
		}
		if err := e.epoch(T, group); err != nil {
			e.pending = append(queue[i:], e.pending...)
			return err
		}
	}
}

// epoch freezes the plan at commit instant T, folds the newly arrived jobs
// into the global graph, re-plans the tail from the warm platform state and
// stitches the result back onto the frozen prefix.
func (e *Engine) epoch(T int64, newJobs []Job) error {
	span := e.cfg.Trace.Start("online.epoch",
		obs.Int("commit", T), obs.Int("new_jobs", int64(len(newJobs))))
	defer span.End()
	began := time.Now()

	var h *schedule.Horizon
	prev := e.plan
	if prev != nil {
		var err error
		h, err = schedule.Freeze(prev, T)
		if err != nil {
			return fmt.Errorf("online: epoch at %d: %w", T, err)
		}
	}

	jobs := append(append([]Job(nil), e.jobs...), newJobs...)
	global, offsets, arrival, err := buildGlobal(jobs)
	if err != nil {
		return fmt.Errorf("online: epoch at %d: %w", T, err)
	}
	n := global.N()
	frozen := make([]bool, n)
	if h != nil {
		// Job appends keep old global task IDs stable, so the horizon's
		// frozen set indexes the prefix of the rebuilt graph directly.
		copy(frozen, h.Frozen)
	}
	tailG, tailToGlobal, tailOf, err := buildTail(global, frozen, T)
	if err != nil {
		return fmt.Errorf("online: epoch at %d: %w", T, err)
	}
	ps, err := warmState(h, tailToGlobal, tailOf, arrival, T)
	if err != nil {
		return fmt.Errorf("online: epoch at %d: %w", T, err)
	}

	tail, degraded, err := e.solveTail(tailG, ps)
	if err != nil {
		return fmt.Errorf("online: epoch at %d: %w", T, err)
	}
	if errs := schedule.CheckAgainst(ps, tail); len(errs) > 0 {
		return fmt.Errorf("online: epoch at %d planned an invalid tail: %v", T, errs[0])
	}
	if e.cfg.DisablePrefetch {
		ex, err := sim.ExecuteOnDemand(tail, ps)
		if err != nil {
			return fmt.Errorf("online: epoch at %d: no-prefetch baseline: %w", T, err)
		}
		tail = ex.Apply(tail)
		if errs := schedule.CheckAgainst(ps, tail); len(errs) > 0 {
			return fmt.Errorf("online: epoch at %d: no-prefetch retime broke the tail: %v", T, errs[0])
		}
	}
	st := stallStats(tail, ps)

	merged, err := mergeEpoch(prev, h, global, tail, tailOf, tailToGlobal, T)
	if err != nil {
		return fmt.Errorf("online: epoch at %d: %w", T, err)
	}
	if errs := schedule.Check(merged); len(errs) > 0 {
		return fmt.Errorf("online: epoch at %d stitched an invalid schedule: %v", T, errs[0])
	}

	e.jobs, e.offsets, e.global, e.arrival = jobs, offsets, global, arrival
	e.plan, e.commit = merged, T
	e.last = &epochCtx{
		commit: T, h: h, prev: prev, global: global, tailG: tailG,
		ps: ps, tail: tail, tailOf: tailOf, tailToGlobal: tailToGlobal,
	}

	es := EpochStats{
		Commit:         T,
		NewJobs:        len(newJobs),
		FrozenTasks:    n - tailG.N(),
		TailTasks:      tailG.N(),
		Degraded:       degraded,
		Makespan:       merged.Makespan,
		PrefetchIssued: st.issued, PrefetchHits: st.hits, PrefetchMisses: st.misses,
		Stall: st.stall, StallHidden: st.baseline - st.stall,
		ReplanTime: time.Since(began),
	}
	e.epochs = append(e.epochs, es)

	tr := e.cfg.Trace
	tr.Count("online.epochs", 1)
	tr.Observe("online.replan_us", float64(es.ReplanTime.Microseconds()))
	tr.Count("online.prefetch_issued", int64(st.issued))
	tr.Count("online.prefetch_hits", int64(st.hits))
	tr.Count("online.prefetch_misses", int64(st.misses))
	span.End(obs.Int("tail_tasks", int64(tailG.N())), obs.Int("makespan", merged.Makespan))
	return nil
}

// solveTail re-plans one epoch tail from the warm state. A failure of the
// configured solver degrades to the robust ladder so an epoch never leaves
// the platform without a plan.
func (e *Engine) solveTail(g *taskgraph.Graph, ps *schedule.PlatformState) (*schedule.Schedule, bool, error) {
	sv, err := solve.Get(e.cfg.Solver)
	if err != nil {
		return nil, false, err
	}
	req := &solve.Request{Graph: g, Arch: e.cfg.Arch, Options: solve.Options{
		ModuleReuse:   e.cfg.ModuleReuse,
		SkipFloorplan: true,
		Seed:          e.cfg.Seed,
		Workers:       e.cfg.Workers,
		MaxIterations: e.cfg.MaxIterations,
		Budget:        e.cfg.Budget.WithNodes(e.cfg.EpochNodes),
		Faults:        e.cfg.Faults,
		Trace:         e.cfg.Trace,
		Initial:       ps,
	}}
	res, err := sv.Solve(req)
	if err == nil {
		return res.Schedule, false, nil
	}
	if e.cfg.Solver == "robust" {
		return nil, false, err
	}
	e.cfg.Trace.Count("online.degraded_epochs", 1)
	rb, rerr := solve.Get("robust")
	if rerr != nil {
		return nil, false, err
	}
	res, rerr = rb.Solve(req)
	if rerr != nil {
		return nil, false, fmt.Errorf("%v (robust fallback: %w)", err, rerr)
	}
	return res.Schedule, true, nil
}

// Plan returns the current stitched schedule (nil before the first epoch).
func (e *Engine) Plan() *schedule.Schedule { return e.plan }

// Commit returns the current commit boundary.
func (e *Engine) Commit() int64 { return e.commit }

// Epochs returns a copy of the per-epoch records so far.
func (e *Engine) Epochs() []EpochStats { return append([]EpochStats(nil), e.epochs...) }

// Finalize drains any pending jobs, optionally polishes the last epoch and
// scores the stitched schedule (deadlines, clairvoyant gap). The engine can
// keep running afterwards; Finalize is a checkpoint, not a terminator.
func (e *Engine) Finalize() (*Result, error) {
	if len(e.pending) > 0 {
		if err := e.Run(); err != nil {
			return nil, err
		}
	}
	res := &Result{
		Epochs:       append([]EpochStats(nil), e.epochs...),
		LateArrivals: e.late,
	}
	if e.plan == nil {
		return res, nil
	}
	if e.cfg.PolishIterations > 0 && e.last != nil {
		res.PolishImproved = e.polish()
	}
	res.Schedule, res.Graph = e.plan, e.global
	res.Jobs = append([]Job(nil), e.jobs...)
	res.Release = append([]int64(nil), e.arrival...)
	res.Epochs = append([]EpochStats(nil), e.epochs...)
	res.JobEnds = make([]int64, len(e.jobs))
	for j, job := range e.jobs {
		var end int64
		for t := e.offsets[j]; t < e.offsets[j]+job.Graph.N(); t++ {
			if e.plan.Tasks[t].End > end {
				end = e.plan.Tasks[t].End
			}
		}
		res.JobEnds[j] = end
		if job.Deadline > 0 && end > job.Deadline {
			res.MissedDeadlines = append(res.MissedDeadlines, j)
		}
	}
	if len(res.MissedDeadlines) > 0 {
		e.cfg.Trace.Count("online.deadline_misses", int64(len(res.MissedDeadlines)))
	}
	if e.cfg.Clairvoyant {
		cm, err := e.clairvoyant()
		if err != nil {
			return nil, fmt.Errorf("online: clairvoyant bound: %w", err)
		}
		res.ClairvoyantMakespan = cm
		res.ClairvoyantGap = e.plan.Makespan - cm
		e.cfg.Trace.SetGauge("online.clairvoyant_gap", float64(res.ClairvoyantGap))
	}
	return res, nil
}

// polish re-runs the randomized search over the last epoch's tail with that
// tail as incumbent and adopts the stitched result only when it strictly
// improves the global makespan and survives every check.
func (e *Engine) polish() bool {
	c := e.last
	sv, err := solve.Get("par")
	if err != nil {
		return false
	}
	req := &solve.Request{Graph: c.tailG, Arch: e.cfg.Arch, Options: solve.Options{
		ModuleReuse:      e.cfg.ModuleReuse,
		SkipFloorplan:    true,
		Seed:             e.cfg.Seed + 1,
		Workers:          e.cfg.Workers,
		MaxIterations:    e.cfg.PolishIterations,
		Budget:           e.cfg.Budget,
		Faults:           e.cfg.Faults,
		Trace:            e.cfg.Trace,
		Initial:          c.ps,
		InitialIncumbent: c.tail,
	}}
	res, err := sv.Solve(req)
	if err != nil || res.Schedule == nil || res.Schedule.Makespan >= c.tail.Makespan {
		return false
	}
	if errs := schedule.CheckAgainst(c.ps, res.Schedule); len(errs) > 0 {
		return false
	}
	merged, err := mergeEpoch(c.prev, c.h, c.global, res.Schedule, c.tailOf, c.tailToGlobal, c.commit)
	if err != nil {
		return false
	}
	if errs := schedule.Check(merged); len(errs) > 0 {
		return false
	}
	if merged.Makespan >= e.plan.Makespan {
		return false
	}
	e.plan = merged
	c.tail = res.Schedule
	if len(e.epochs) > 0 {
		e.epochs[len(e.epochs)-1].Makespan = merged.Makespan
	}
	e.cfg.Trace.Count("online.polish_improved", 1)
	return true
}

// clairvoyant solves the whole merged instance offline with every arrival
// known in advance (arrivals become plain release floors at t=0) — the
// bound an omniscient scheduler reaches.
func (e *Engine) clairvoyant() (int64, error) {
	sv, err := solve.Get(e.cfg.Solver)
	if err != nil {
		return 0, err
	}
	req := &solve.Request{Graph: e.global, Arch: e.cfg.Arch, Options: solve.Options{
		ModuleReuse:   e.cfg.ModuleReuse,
		SkipFloorplan: true,
		Seed:          e.cfg.Seed,
		Workers:       e.cfg.Workers,
		MaxIterations: e.cfg.MaxIterations,
		Budget:        e.cfg.Budget,
		Faults:        e.cfg.Faults,
		Trace:         e.cfg.Trace,
		Initial:       &schedule.PlatformState{Release: append([]int64(nil), e.arrival...)},
	}}
	res, err := sv.Solve(req)
	if err != nil {
		return 0, err
	}
	return res.Schedule.Makespan, nil
}
