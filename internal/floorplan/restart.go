package floorplan

import (
	"fmt"
	"time"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/obs"
	"resched/internal/resources"
)

// The §V-H policy: a scheduler whose schedule the floorplanner rejects
// restarts on a device virtually shrunk by shrinkStep per resource kind, at
// most retryLimit times. Retries are cheap, so the shrink is gentle.
const (
	retryLimit = 20
	shrinkStep = 0.93
)

// Restart configures the §V-H shrink-and-restart loop that PA and IS-k
// run around their scheduling passes (see Run).
type Restart struct {
	// Name prefixes the loop's attempt span, its counters and its errors:
	// "pa" or "isk".
	Name string
	// QuerySpan names the span around each floorplan query
	// ("pa.phase8.floorplan", "isk.floorplan").
	QuerySpan string
	// Arch is the device: its capacity is the first attempt's, its fabric
	// answers the queries.
	Arch *arch.Architecture
	// Skip returns after the first attempt, unfloorplanned.
	Skip bool
	// Hint, when it verifies against an attempt's regions, is that
	// attempt's placement and no query runs; otherwise it is ignored.
	Hint []Placement
	// Budget is checked before every attempt and charged per node of every
	// query.
	Budget *budget.Budget
	// Faults, when armed, can steal a query (see Options.Faults).
	Faults *faultinject.Set
	// Trace records an outcome-tagged "<Name>.attempt" span per attempt,
	// the retry and hint counters and each query's floorplan.solve span. A
	// nil trace is a no-op.
	Trace *obs.Trace
}

// RestartStats reports a Restart run, split as Table I splits PA's
// runtime: SchedulingTime is spent in the attempts, FloorplanTime in hint
// checks and queries, across all retries.
type RestartStats struct {
	SchedulingTime, FloorplanTime time.Duration
	// Retries counts shrink-and-restart rounds taken (0 = first try);
	// Attempts is Retries + 1 on success.
	Retries, Attempts int
	// Placements is the accepted attempt's floorplan (empty when Skip).
	Placements []Placement
}

// Run calls attempt at the device capacity and floorplans the region
// requirements it returns, each query capped at budget.FloorplanNodes. On a
// "no" it calls attempt again at a capacity shrunk by shrinkStep per kind,
// up to retryLimit retries, and then fails with an error matching
// ErrInfeasible. An exhausted budget fails before the next attempt with an
// error matching budget.ErrExhausted. The slice attempt returns is read
// only before the next attempt, so it may alias the attempt's scratch. One
// Planner serves every retry, so requirements the attempts share keep their
// search scratch.
func (r Restart) Run(attempt func(maxRes resources.Vector) ([]resources.Vector, error)) (RestartStats, error) {
	var stats RestartStats
	maxRes := r.Arch.MaxRes
	var planner *Planner
	query := Options{Budget: r.Budget, Faults: r.Faults, Trace: r.Trace}
	for n := 0; ; n++ {
		if err := r.Budget.Check(); err != nil {
			return RestartStats{}, fmt.Errorf("%s: attempt %d: %w", r.Name, n, err)
		}
		var att *obs.Span
		if r.Trace.Enabled() {
			att = r.Trace.Start(r.Name+".attempt",
				obs.Int("attempt", int64(n)), obs.Str("maxres", maxRes.String()))
		}
		stats.Attempts++
		begin := time.Now()
		regions, err := attempt(maxRes)
		stats.SchedulingTime += time.Since(begin)
		if err != nil {
			endAttempt(att, "error")
			return RestartStats{}, err
		}
		if r.Skip {
			endAttempt(att, "unfloorplanned")
			return stats, nil
		}
		fabric, err := r.Arch.RequireFabric()
		if err != nil {
			endAttempt(att, "error")
			return RestartStats{}, fmt.Errorf("%s: floorplanning requested: %w", r.Name, err)
		}
		if len(r.Hint) > 0 && len(r.Hint) == len(regions) {
			hintBegin := time.Now()
			hintErr := Verify(fabric, regions, r.Hint)
			stats.FloorplanTime += time.Since(hintBegin)
			if hintErr == nil {
				// Copying detaches the result from the caller's hint.
				stats.Placements = append([]Placement(nil), r.Hint...)
				r.count(".floorplan_hint_used")
				endAttempt(att, "feasible-hint")
				return stats, nil
			}
			r.count(".floorplan_hint_rejected")
		}
		sp := r.Trace.Start(r.QuerySpan)
		fpBegin := time.Now()
		if planner == nil {
			planner = NewPlanner(fabric)
		}
		res, err := planner.Solve(regions, query)
		stats.FloorplanTime += time.Since(fpBegin)
		sp.End()
		if err != nil {
			endAttempt(att, "error")
			return RestartStats{}, err
		}
		if res.Feasible {
			stats.Placements = res.Placements
			endAttempt(att, "feasible")
			return stats, nil
		}
		if n >= retryLimit {
			endAttempt(att, "infeasible")
			return RestartStats{}, fmt.Errorf("%s: %w after %d shrink retries", r.Name, ErrInfeasible, n)
		}
		stats.Retries++
		r.count(".retries")
		if !res.Proven {
			// The node cap or the budget cut this "no" short: the retry
			// may give up a schedule that fits.
			r.count(".retries_unproven")
		}
		endAttempt(att, "infeasible-shrink")
		for k := range maxRes {
			maxRes[k] = int(float64(maxRes[k]) * shrinkStep)
		}
	}
}

// endAttempt ends the attempt span with its outcome tag, which is only
// built when the trace records.
func endAttempt(att *obs.Span, outcome string) {
	if att != nil {
		att.End(obs.Str("outcome", outcome))
	}
}

// count adds one to the counter Name+suffix; the name is only built when
// the trace records.
func (r Restart) count(suffix string) {
	if r.Trace.Enabled() {
		r.Trace.Count(r.Name+suffix, 1)
	}
}
