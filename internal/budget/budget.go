// Package budget holds the two limit concepts of the scheduling pipeline.
//
// A search cap is an algorithm constant that ends one search early; the
// search keeps its best answer and reports it unproven. The caps live in
// one table below (FloorplanNodes, RandomFloorplanNodes, WindowNodes,
// ExactNodes) and are not settings.
//
// A request cap is the Budget tree: wall-clock deadlines, node caps and
// cooperative cancellation behind a single Budget type threaded through
// floorplan.Options, sched.Options/RandomOptions and isk.Options.
// Exhausting it ends the whole request.
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
// overall pipeline budget; WithNodes derives a child with its own node cap
// that charges every ancestor too, which is how a server request or an
// online epoch caps its nodes inside the server's or the run's budget.
// Cancellation flows downward only: cancelling a parent trips every
// descendant, while cancelling a child retires just its own subtree — so a
// phase that derives a scoped child can (and must, see the lostcancel
// analyzer) `defer child.Cancel()` without ending the pipeline it nests in.
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

// The search caps: how many nodes one search may explore before it stops
// and keeps its best answer. They bound single searches, as the paper's
// solvers are bounded by a MILP time limit; a Budget bounds a whole request.
const (
	// FloorplanNodes caps one floorplan query of PA and IS-k: the
	// default of floorplan.Options.MaxNodes.
	FloorplanNodes = 200_000
	// RandomFloorplanNodes caps one floorplan query of PA-R, which queries
	// far more often and only shrinks its virtual capacity on a "no".
	RandomFloorplanNodes = 20_000
	// WindowNodes caps the branch and bound of one IS-k window, the role
	// of the per-window MILP time limit of ref [6].
	WindowNodes = 50_000
	// ExactNodes caps the exhaustive reference, which is one IS-k window
	// over the whole graph.
	ExactNodes = 30_000_000
)

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
	// sharing this budget (and its children); 0 means none.
	MaxNodes int64
	// Clock overrides the time source. Nil means time.Now. Injected clocks
	// are consulted on every Charge (no striding) so fake-clock tests see
	// deadline trips at the exact node where the clock advanced.
	Clock Clock
	// Trace, when non-nil, receives one "budget.exhausted" flight-recorder
	// event the first time the budget (or any WithTimeout child — the note
	// is once per tree, and once per WithNodes or WithOwnNote subtree)
	// fails a Charge or Check, tagged with the reason.
	// Recording never alters what Charge/Check return.
	Trace *obs.Trace
}

// shared is the state common to a budget and its WithTimeout children: the
// clock stride and the exhaustion note propagate across them.
type shared struct {
	ticks atomic.Int64 // Charge calls since the last clock read
	// trace and noted implement the once-per-tree exhaustion event. They
	// live here (not on Budget) because WithTimeout copies the Budget
	// struct: a per-copy flag would fire once per child.
	trace *obs.Trace
	noted atomic.Bool
}

// meter counts the nodes charged to one node cap. New makes the root meter,
// WithTimeout children share their parent's, and WithNodes children get
// their own, linked up to the parent's: a charge adds to every meter on the
// chain, so each cap counts the nodes charged anywhere below it.
type meter struct {
	nodes atomic.Int64
	max   int64 // 0 means no cap
	up    *meter
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
	m        *meter
	cancel   *cancelNode
	clock    Clock
	deadline time.Time // zero means no deadline
	strided  bool      // real clock: read it every clockStride charges only
}

// New builds a budget from opt.
func New(opt Options) *Budget {
	b := &Budget{
		s:       &shared{trace: opt.Trace},
		m:       &meter{max: opt.MaxNodes},
		cancel:  &cancelNode{},
		clock:   opt.Clock,
		strided: opt.Clock == nil,
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

// WithOwnNote derives a child budget identical to the receiver — deadline,
// node accounting, clock, trace and cancellation — whose subtree notes its
// first failure in the trace on its own, as a WithNodes child does. A
// server gives one to every request it derives from its root, so each
// request that runs dry records its own event. It holds nothing that needs
// releasing; its Cancel retires only the child. On a nil receiver it
// returns nil.
func (b *Budget) WithOwnNote() *Budget {
	if b == nil {
		return nil
	}
	child := *b
	child.s = &shared{trace: b.s.trace}
	child.cancel = &cancelNode{parent: b.cancel}
	return &child
}

// WithNodes derives a child budget that may charge at most n nodes of its
// own. The child counts only the nodes charged through it (and its own
// children), charges every ancestor's count too, and shares the receiver's
// deadline, clock, trace and cancellation; its subtree notes its first
// failure in the trace on its own. It holds nothing that needs releasing,
// so unlike WithTimeout it need not be cancelled; its Cancel retires only
// the child. A non-positive n returns the receiver itself. On a nil
// receiver it is equivalent to New(Options{MaxNodes: n}).
func (b *Budget) WithNodes(n int64) *Budget {
	if n <= 0 {
		return b
	}
	if b == nil {
		return New(Options{MaxNodes: n})
	}
	// Its own note: each request or epoch cap that binds records its own
	// event.
	child := b.WithOwnNote()
	child.m = &meter{max: n, up: b.m}
	return child
}

// Cancel trips the budget and every budget derived from it:
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

// Nodes returns the cumulative nodes charged so far against the budget's
// node cap: everything charged through the budget, its WithTimeout
// relatives and every child derived below them.
func (b *Budget) Nodes() int64 {
	if b == nil {
		return 0
	}
	return b.m.nodes.Load()
}

// Deadline returns the effective deadline and whether one is set.
func (b *Budget) Deadline() (time.Time, bool) {
	if b == nil {
		return time.Time{}, false
	}
	return b.deadline, !b.deadline.IsZero()
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
	capped := false
	for m := b.m; m != nil; m = m.up {
		if nodes := m.nodes.Add(n); m.max > 0 && nodes > m.max {
			capped = true
		}
	}
	if capped {
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
// chargers see the run's nodes added to each meter in one atomic step.
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
	for m := b.m; m != nil; m = m.up {
		c, f := m.reserve(calls, fail)
		if c < calls {
			// A cap up the chain ends the run sooner: return the surplus
			// the meters below already took.
			for l := b.m; l != m; l = l.up {
				l.nodes.Add(c - calls)
			}
		}
		calls, fail = c, f
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

// reserve adds the first calls of a run to the meter, up to and including
// the call that crosses its cap, and returns how many it added with the
// error of the run's last call.
func (m *meter) reserve(calls int64, fail *Error) (int64, *Error) {
	if m.max <= 0 {
		m.nodes.Add(calls)
		return calls, fail
	}
	for {
		before := m.nodes.Load()
		c, f := calls, fail
		// Call i fails the cap when before+i > max; at the same call the
		// cap is tested before the clock.
		if capAt := max(m.max-before+1, 1); capAt <= c {
			c, f = capAt, ErrNodeCap
		}
		if m.nodes.CompareAndSwap(before, before+c) {
			return c, f
		}
	}
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
	for m := b.m; m != nil; m = m.up {
		if m.max > 0 && m.nodes.Load() >= m.max {
			return b.noteExhausted(ErrNodeCap)
		}
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
