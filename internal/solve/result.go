package solve

import (
	"fmt"
	"io"
	"time"

	"resched/internal/floorplan"
	"resched/internal/sched"
	"resched/internal/schedule"
)

// Result normalizes the heterogeneous per-algorithm statistics
// (sched.Stats, sched.RandomStats, isk.Stats) into one shape: the schedule
// itself, the uniform Table-I report fields every solver shares, and one
// optional detail block per solver family.
type Result struct {
	// Schedule is the solver's output; non-nil whenever the error is nil.
	Schedule *schedule.Schedule
	// Makespan mirrors Schedule.Makespan for report assembly without
	// chasing the pointer.
	Makespan int64
	// Placements holds the verified floorplan of the schedule's regions
	// (empty when floorplanning was skipped or the solver never ran one).
	Placements []floorplan.Placement

	// The uniform report: the scheduling/floorplanning runtime split of
	// Table I plus the retry and iteration counts every solver exposes
	// (PA: shrink retries and attempts; PA-R: discards and inner runs;
	// IS-k: shrink retries and windows; exact: the single search).
	SchedulingTime time.Duration
	FloorplanTime  time.Duration
	Retries        int
	Iterations     int

	// Search is the randomized-search detail (PA-R); nil otherwise.
	Search *SearchStats
	// Window is the windowed-search detail (IS-k); nil otherwise.
	Window *WindowStats
	// Exact is the exhaustive-reference detail; nil otherwise.
	Exact *ExactStats
	// Ladder is the degradation-ladder detail (robust); nil otherwise. The
	// ladder's other fields are those of the rung that fired.
	Ladder *LadderStats

	// Cache reports how the schedule cache participated when a caching
	// decorator (internal/schedcache) handled the request: "hit" (the
	// stored result was returned without running the solver), "warm" (a
	// cached neighbor warm-started a fresh solve) or "miss" (a fresh solve,
	// now stored). Empty when no cache was in the path — the zero value
	// keeps uncached reports byte-identical to their pre-cache output.
	Cache string
	// CacheTime is the time the caching decorator spent before handing the
	// request to the solver (or answering a hit): keying, the lookup and
	// the warm-start probes. Zero when no cache was in the path.
	CacheTime time.Duration
}

// SearchStats describes a PA-R search.
type SearchStats struct {
	// FloorplanCalls, Discarded and Improvements count feasibility
	// queries, rejected improving schedules and accepted improvements.
	FloorplanCalls int
	Discarded      int
	Improvements   int
	// CapacityFactor is the final virtual-capacity scaling (minimum
	// across workers in a parallel search).
	CapacityFactor float64
	// History records every accepted improvement, for the convergence
	// analysis of Fig. 6.
	History []sched.ImprovementPoint
	// Elapsed is the total search time.
	Elapsed time.Duration
}

// WindowStats describes an IS-k run.
type WindowStats struct {
	// Windows solved and total branch-and-bound nodes across them.
	Windows int
	Nodes   int
}

// ExactStats describes the exhaustive reference search.
type ExactStats struct {
	// Nodes explored; Proven is true when the search completed within
	// its node budget (the result is the best non-delay schedule).
	Nodes  int
	Proven bool
}

// LadderStats describes a robust degradation-ladder run.
type LadderStats struct {
	// Rung tells which ladder level produced the schedule.
	Rung Rung
	// Degraded reports that at least one rung above the final one failed;
	// Reasons is the compact failure-chain summary.
	Degraded bool
	Reasons  string
}

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

// WriteReport renders the user-facing run report: the solver-specific
// detail lines followed by the uniform scheduling/floorplanning/retries/
// iterations line. This is the single renderer behind cmd/pasched and the
// experiments harness; its output is byte-for-byte the report the CLI
// printed before the solve layer existed.
func (r *Result) WriteReport(w io.Writer) error {
	if r.Cache != "" {
		if _, err := fmt.Fprintf(w, "cache: %s\n", r.Cache); err != nil {
			return err
		}
	}
	if l := r.Ladder; l != nil {
		if _, err := fmt.Fprintf(w, "rung: %s\n", l.Rung); err != nil {
			return err
		}
		if l.Reasons != "" {
			if _, err := fmt.Fprintf(w, "degraded: %s\n", l.Reasons); err != nil {
				return err
			}
		}
	}
	if s := r.Search; s != nil {
		if _, err := fmt.Fprintf(w, "floorplan calls %d, discarded %d, improvements %d\n",
			s.FloorplanCalls, s.Discarded, s.Improvements); err != nil {
			return err
		}
	}
	if wd := r.Window; wd != nil {
		if _, err := fmt.Fprintf(w, "windows %d, nodes %d\n", wd.Windows, wd.Nodes); err != nil {
			return err
		}
	}
	if e := r.Exact; e != nil {
		if _, err := fmt.Fprintf(w, "nodes %d, proven %v\n", e.Nodes, e.Proven); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "scheduling %v, floorplanning %v, retries %d, iterations %d\n",
		r.SchedulingTime.Round(time.Microsecond),
		r.FloorplanTime.Round(time.Microsecond),
		r.Retries, r.Iterations)
	return err
}

// Seconds renders a duration with three decimals, the Table-I convention
// shared by every aggregate report.
func Seconds(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }
