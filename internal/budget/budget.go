// Package budget unifies the resource limits of the scheduling pipeline —
// wall-clock deadlines, search-node caps and cooperative cancellation —
// behind a single Budget type threaded through milp.Options,
// floorplan.Options, sched.Options/RandomOptions and isk.Options.
//
// Before this package each solver rolled its own deadline idiom with direct
// time.Now() comparisons; the reschedvet rawclock analyzer now rejects that
// pattern everywhere except here, so this package is the only place in the
// module that may compare the wall clock against a deadline.
//
// A nil *Budget is a valid receiver for every method and means "unlimited"
// (the obs idiom), so hot paths charge unconditionally:
//
//	if err := opt.Budget.Charge(1); err != nil {
//		return abort(err) // cancelled, deadline passed, or node cap hit
//	}
//
// Charge is designed for branch-and-bound inner loops: the cancellation
// flag and node cap are checked on every call (a couple of atomic loads),
// while the clock — the only expensive part — is consulted once every
// clockStride charges under the real clock and on every charge under an
// injected test clock, so a Cancel lands within microseconds and a deadline
// within a few hundred nodes.
//
// Budgets form a tree: WithTimeout derives a child with a tighter deadline
// that shares the parent's node accounting and observes the parent's
// cancellation, which is how PA-R's per-call TimeBudget nests inside an
// overall pipeline budget. Cancellation flows downward only: cancelling a
// parent trips every descendant, while cancelling a child retires just its
// own subtree — so a phase that derives a scoped child can (and must, see
// the lostcancel analyzer) `defer child.Cancel()` without ending the
// pipeline it nests in.
package budget

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"resched/internal/obs"
)

// Clock supplies the current time. Production budgets use time.Now; tests
// inject a manual clock (see internal/faultinject) so deadline behaviour is
// deterministic and instantaneous.
type Clock func() time.Time

// clockStride is how many Charge calls share one real-clock read. 64 keeps
// the amortised cost of a charge at a few atomic operations while bounding
// deadline-detection latency to well under a millisecond of search.
const clockStride = 64

// Reason classifies why a budget tripped.
type Reason int

const (
	// Cancelled means Cancel was called on the budget or an ancestor.
	Cancelled Reason = iota + 1
	// DeadlinePassed means the wall-clock deadline was reached.
	DeadlinePassed
	// NodeCapReached means the cumulative node cap was exhausted.
	NodeCapReached
)

// String names the reason for error messages and span tags.
func (r Reason) String() string {
	switch r {
	case Cancelled:
		return "cancelled"
	case DeadlinePassed:
		return "deadline passed"
	case NodeCapReached:
		return "node cap reached"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// ErrExhausted is the umbrella sentinel: every budget failure matches it
// via errors.Is, regardless of the specific Reason.
var ErrExhausted = errors.New("budget exhausted")

// Error is the typed budget failure. errors.Is(err, ErrExhausted) matches
// any budget error; errors.Is(err, ErrCancelled) (or ErrDeadline,
// ErrNodeCap) matches the specific reason.
type Error struct {
	Reason Reason
}

// Error implements the error interface.
func (e *Error) Error() string { return "budget: " + e.Reason.String() }

// Is makes every *Error match ErrExhausted and any *Error with the same
// Reason, so callers can test for either the class or the cause.
func (e *Error) Is(target error) bool {
	if target == ErrExhausted {
		return true
	}
	t, ok := target.(*Error)
	return ok && t.Reason == e.Reason
}

// Canonical instances for use as errors.Is targets.
var (
	ErrCancelled = &Error{Reason: Cancelled}
	ErrDeadline  = &Error{Reason: DeadlinePassed}
	ErrNodeCap   = &Error{Reason: NodeCapReached}
)

// Options configure a new budget. The zero value means unlimited.
type Options struct {
	// Timeout is the wall-clock allowance from creation; 0 means none.
	Timeout time.Duration
	// Deadline is an absolute cut-off; the zero time means none. When both
	// Timeout and Deadline are set the earlier instant wins.
	Deadline time.Time
	// MaxNodes caps the cumulative search nodes charged across every solver
	// sharing this budget (and its WithTimeout children); 0 means none.
	MaxNodes int64
	// Clock overrides the time source. Nil means time.Now. Injected clocks
	// are consulted on every Charge (no striding) so fake-clock tests see
	// deadline trips at the exact node where the clock advanced.
	Clock Clock
	// Trace, when non-nil, receives one "budget.exhausted" flight-recorder
	// event the first time the budget (or any WithTimeout child — the note
	// is once per tree) fails a Charge or Check, tagged with the reason.
	// Recording never alters what Charge/Check return.
	Trace *obs.Trace
}

// shared is the state common to a budget and all WithTimeout children: node
// accounting and the exhaustion note propagate across the whole tree.
type shared struct {
	nodes atomic.Int64
	ticks atomic.Int64 // Charge calls since the last clock read
	// trace and noted implement the once-per-tree exhaustion event. They
	// live here (not on Budget) because WithTimeout copies the Budget
	// struct: a per-copy flag would fire once per child.
	trace *obs.Trace
	noted atomic.Bool
}

// cancelNode is one link in the downward-only cancellation chain. Each
// budget owns a node whose parent pointer leads to the budget it was derived
// from; a budget is cancelled when any node on its chain is tripped, so a
// parent's Cancel reaches every descendant while a child's Cancel stays
// invisible to its ancestors.
type cancelNode struct {
	flag   atomic.Bool
	parent *cancelNode
}

// tripped walks the chain towards the root.
func (c *cancelNode) tripped() bool {
	for n := c; n != nil; n = n.parent {
		if n.flag.Load() {
			return true
		}
	}
	return false
}

// Budget tracks one pipeline's resource allowance. Construct with New (or
// WithTimeout on an existing budget); a nil *Budget is valid and unlimited.
// All methods are safe for concurrent use — Cancel is expected to arrive
// from another goroutine.
type Budget struct {
	s        *shared
	cancel   *cancelNode
	clock    Clock
	deadline time.Time // zero means no deadline
	maxNodes int64     // 0 means no cap
	strided  bool      // real clock: read it every clockStride charges only
}

// New builds a budget from opt.
func New(opt Options) *Budget {
	b := &Budget{
		s:        &shared{trace: opt.Trace},
		cancel:   &cancelNode{},
		clock:    opt.Clock,
		maxNodes: opt.MaxNodes,
		strided:  opt.Clock == nil,
	}
	if b.clock == nil {
		b.clock = time.Now
	}
	b.deadline = opt.Deadline
	if opt.Timeout > 0 {
		d := b.clock().Add(opt.Timeout)
		if b.deadline.IsZero() || d.Before(b.deadline) {
			b.deadline = d
		}
	}
	return b
}

// WithTimeout derives a child budget whose deadline is at most d from now,
// sharing the receiver's node accounting and clock and observing its
// cancellation: cancelling the parent trips the child, nodes charged to the
// child count against the parent's cap, but the child's own Cancel retires
// only the child (and budgets derived from it) — the parent keeps running.
// Callers own the child's lifetime and should `defer child.Cancel()`; the
// lostcancel analyzer enforces this. A non-positive d leaves the deadline
// unchanged. On a nil receiver it is equivalent to New(Options{Timeout: d}).
func (b *Budget) WithTimeout(d time.Duration) *Budget {
	if b == nil {
		if d <= 0 {
			return nil
		}
		return New(Options{Timeout: d})
	}
	child := *b
	child.cancel = &cancelNode{parent: b.cancel}
	if d > 0 {
		dl := b.clock().Add(d)
		if child.deadline.IsZero() || dl.Before(child.deadline) {
			child.deadline = dl
		}
	}
	return &child
}

// Cancel trips the budget and every budget derived from it via WithTimeout:
// their next Charge or Check returns ErrCancelled. Ancestors are unaffected.
// Idempotent and safe from any goroutine; this is the cooperative-
// cancellation entry point.
func (b *Budget) Cancel() {
	if b == nil {
		return
	}
	b.cancel.flag.Store(true)
}

// Cancelled reports whether Cancel has been called on this budget or on an
// ancestor it was derived from.
func (b *Budget) Cancelled() bool {
	return b != nil && b.cancel.tripped()
}

// Nodes returns the cumulative nodes charged so far across the budget tree.
func (b *Budget) Nodes() int64 {
	if b == nil {
		return 0
	}
	return b.s.nodes.Load()
}

// Deadline returns the effective deadline and whether one is set.
func (b *Budget) Deadline() (time.Time, bool) {
	if b == nil {
		return time.Time{}, false
	}
	return b.deadline, !b.deadline.IsZero()
}

// Remaining returns the time left until the deadline (negative once it has
// passed) and whether a deadline is set at all.
func (b *Budget) Remaining() (time.Duration, bool) {
	if b == nil || b.deadline.IsZero() {
		return 0, false
	}
	return b.deadline.Sub(b.clock()), true
}

// Charge records n search nodes against the budget and reports whether the
// budget still has headroom. It is the per-node hook for B&B inner loops:
// cancellation and the node cap are verified on every call; the clock only
// every clockStride calls under the real clock (every call under an
// injected one). A nil budget accepts every charge.
func (b *Budget) Charge(n int64) error {
	if b == nil {
		return nil
	}
	if b.cancel.tripped() {
		return b.noteExhausted(ErrCancelled)
	}
	nodes := b.s.nodes.Add(n)
	if b.maxNodes > 0 && nodes > b.maxNodes {
		return b.noteExhausted(ErrNodeCap)
	}
	if !b.deadline.IsZero() {
		if b.strided && b.s.ticks.Add(1)%clockStride != 0 {
			return nil
		}
		if !b.clock().Before(b.deadline) {
			return b.noteExhausted(ErrDeadline)
		}
	}
	return nil
}

// ChargeRun charges a run of n nodes as n successive Charge(1) calls would,
// made back to back: it stops at the first call that fails and returns how
// many calls succeeded before it (n when none failed) with that call's
// error. A failing call is charged, as Charge charges it, except on
// cancellation. Searches that skip a run of nodes in bulk use it to keep
// their node counts and abort points those of a per-node loop. Concurrent
// chargers see the run's nodes added in one atomic step.
func (b *Budget) ChargeRun(n int64) (int64, error) {
	if b == nil || n <= 0 {
		return n, nil
	}
	if b.cancel.tripped() {
		return 0, b.noteExhausted(ErrCancelled)
	}
	// calls is how many Charge(1) calls the run makes, the failing one
	// included; fail is that call's error (nil when all n pass).
	calls, fail := n, (*Error)(nil)
	if !b.deadline.IsZero() {
		// The first call that reads the clock: every call under an
		// injected clock, the next stride boundary under the real one.
		first := int64(1)
		if b.strided {
			first = clockStride - b.s.ticks.Load()%clockStride
		}
		if first <= n && !b.clock().Before(b.deadline) {
			calls, fail = first, ErrDeadline
		}
	}
	if b.maxNodes > 0 {
		for {
			before := b.s.nodes.Load()
			c, f := calls, fail
			// Call i fails the cap when before+i > maxNodes; at the same
			// call the cap is tested before the clock.
			if capAt := max(b.maxNodes-before+1, 1); capAt <= c {
				c, f = capAt, ErrNodeCap
			}
			if b.s.nodes.CompareAndSwap(before, before+c) {
				calls, fail = c, f
				break
			}
		}
	} else {
		b.s.nodes.Add(calls)
	}
	if b.strided && !b.deadline.IsZero() {
		// Only calls that pass the node cap reach the clock stride.
		ticked := calls
		if fail == ErrNodeCap {
			ticked--
		}
		b.s.ticks.Add(ticked)
	}
	if fail != nil {
		return calls - 1, b.noteExhausted(fail)
	}
	return n, nil
}

// Check verifies the budget without charging nodes, always consulting the
// clock. Use it at phase and attempt boundaries where the extra clock read
// is immaterial; inner loops should prefer Charge.
func (b *Budget) Check() error {
	if b == nil {
		return nil
	}
	if b.cancel.tripped() {
		return b.noteExhausted(ErrCancelled)
	}
	if b.maxNodes > 0 && b.s.nodes.Load() >= b.maxNodes {
		return b.noteExhausted(ErrNodeCap)
	}
	if !b.deadline.IsZero() && !b.clock().Before(b.deadline) {
		return b.noteExhausted(ErrDeadline)
	}
	return nil
}

// noteExhausted records the first failure of the budget tree in the flight
// recorder and passes the error through unchanged. Only the error paths pay
// for it: a budget with headroom never touches the trace.
func (b *Budget) noteExhausted(err *Error) error {
	if b.s.trace != nil && b.s.noted.CompareAndSwap(false, true) {
		b.s.trace.Event("budget.exhausted", obs.Str("reason", err.Reason.String()))
	}
	return err
}
