// Package faultinject provides deterministic fault hooks for driving the
// resilience paths of the scheduling pipeline on demand: forcing the next N
// floorplan solves to report infeasible, injecting artificial solver latency
// on a hand-advanced clock, forcing serving-path admissions to shed and
// delaying online job arrivals. A Set is plugged through floorplan.Options,
// sched.Options/RandomOptions, isk.Options, the serving config and the
// online engine, so a test (or a pasched -fault-* flag) can exercise every
// rung of the robust solver's degradation ladder and every cancellation
// path without constructing a pathological instance. Every armable fault has a
// hook on a production path: FloorplanSolve, ServeDispatch or LateArrival.
//
// Every fault is counted, never random: "next 3 solves" means exactly the
// next 3 solves in the solver's deterministic call order, which keeps
// fault-injected runs as reproducible as clean ones. A nil *Set is a valid
// receiver meaning "no faults armed" (the obs idiom), so the hooks are
// called unconditionally from solver hot paths.
package faultinject

import (
	"sort"
	"sync"
	"time"

	"resched/internal/obs"
)

// Clock is a hand-advanced time source for budget.Options.Clock and for
// latency injection: Advance moves time forward explicitly, so deadline
// trips happen at the exact solver call a test arranged, independent of
// machine speed.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// clockEpoch is the fixed origin of every fault-injection clock. Its value
// is arbitrary; fixing it keeps fake-clock runs byte-identical.
var clockEpoch = time.Unix(1_000_000_000, 0)

// NewClock returns a clock frozen at a fixed epoch.
func NewClock() *Clock { return &Clock{now: clockEpoch} }

// Now returns the current fake time; pass the method value as a
// budget.Clock.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (backward moves are ignored).
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// Fault names used by Armed and Fired.
const (
	FaultFloorplanInfeasible = "floorplan-infeasible"
	FaultSolverLatency       = "solver-latency"
	FaultServeQueueFull      = "serve-queue-full"
	FaultLateArrival         = "late-arrival"
)

// Set is an armed collection of deterministic faults. The zero value (and
// nil) has nothing armed; arm faults with the Force/Set methods. Safe for
// concurrent use.
type Set struct {
	mu           sync.Mutex
	fpInfeasible int // remaining forced-infeasible floorplan solves; <0 = every solve
	queueFull    int // remaining forced queue-full admissions; <0 = every admission
	lateArrival  int // remaining forced-late job arrivals; <0 = every arrival
	lateDelay    int64
	latency      time.Duration
	clock        *Clock
	fired        map[string]int
	trace        *obs.Trace
}

// New returns an empty fault set.
func New() *Set { return &Set{} }

// ForceFloorplanInfeasible arms the next n floorplan solves to report
// infeasible (unproven) without searching; n < 0 means every solve.
func (s *Set) ForceFloorplanInfeasible(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fpInfeasible = n
}

// SetTrace routes every subsequent fault firing into tr's flight recorder
// as a "fault.injected" event tagged with the fault name and its running
// count, so a degraded run's event tail shows which rung failures were
// injected rather than organic. A nil trace (the default) records nothing.
func (s *Set) SetTrace(tr *obs.Trace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trace = tr
}

// SetSolverLatency makes every floorplan solve advance clk by d,
// simulating a slow solver against budget deadlines on the same clock.
func (s *Set) SetSolverLatency(d time.Duration, clk *Clock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latency = d
	s.clock = clk
}

// ForceQueueFull arms the next n serving-path admissions to behave as if
// the request queue were full (the 429 load-shed path) without actually
// filling it; n < 0 means every admission. This is the chaos hook for the
// admission-control state machine: a test drives the shed path without
// needing to wedge real workers behind slow solves.
func (s *Set) ForceQueueFull(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queueFull = n
}

// ForceLateArrival arms the next n online job arrivals to land delay time
// units later than their trace says; n < 0 means every arrival. This drives
// the online engine's re-plan paths — a late job invalidates the epoch plan
// that assumed its trace arrival time — deterministically: "next 2 arrivals"
// means exactly the next 2 in the engine's arrival order.
func (s *Set) ForceLateArrival(n int, delay int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lateArrival = n
	s.lateDelay = delay
}

// LateArrival is the hook the online engine consumes once per job arrival:
// it reports the armed delay to add to the arrival time, and false when the
// arrival lands on time. Nil-safe.
func (s *Set) LateArrival() (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lateArrival == 0 {
		return 0, false
	}
	if s.lateArrival > 0 {
		s.lateArrival--
	}
	s.recordLocked(FaultLateArrival)
	return s.lateDelay, true
}

// ServeDispatch is the serving-path hook, consumed once per request before
// admission control: it reports whether the admission must be treated as
// queue-full. The solver-side hook
// (FloorplanSolve) stays untouched, so chaos tests exercise the
// serving path without reaching into solver options. Nil-safe.
func (s *Set) ServeDispatch() (forceQueueFull bool) {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queueFull == 0 {
		return false
	}
	if s.queueFull > 0 {
		s.queueFull--
	}
	s.recordLocked(FaultServeQueueFull)
	return true
}

// FloorplanSolve is the hook consumed at the top of every floorplan solve.
// It applies armed latency and reports whether the solve must be forced
// infeasible. Nil-safe.
func (s *Set) FloorplanSolve() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latency > 0 && s.clock != nil {
		s.clock.Advance(s.latency)
		s.recordLocked(FaultSolverLatency)
	}
	if s.fpInfeasible == 0 {
		return false
	}
	if s.fpInfeasible > 0 {
		s.fpInfeasible--
	}
	s.recordLocked(FaultFloorplanInfeasible)
	return true
}

func (s *Set) recordLocked(name string) {
	if s.fired == nil {
		s.fired = make(map[string]int)
	}
	s.fired[name]++
	// The trace's mutex nests strictly inside s.mu here; obs never calls
	// back into faultinject, so the order cannot invert.
	s.trace.Event("fault.injected",
		obs.Str("fault", name), obs.Int("fired", int64(s.fired[name])))
}

// Armed returns the sorted names of the currently armed faults, for obs
// span tags. Nil-safe; empty when nothing is armed.
func (s *Set) Armed() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	if s.fpInfeasible != 0 {
		names = append(names, FaultFloorplanInfeasible)
	}
	if s.latency > 0 && s.clock != nil {
		names = append(names, FaultSolverLatency)
	}
	if s.queueFull != 0 {
		names = append(names, FaultServeQueueFull)
	}
	if s.lateArrival != 0 {
		names = append(names, FaultLateArrival)
	}
	sort.Strings(names)
	return names
}

// Fired returns how many times the named fault has actually fired.
func (s *Set) Fired(name string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired[name]
}
