package budget

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"resched/internal/obs"
)

// fakeClock is a hand-advanced time source local to these tests; pipeline
// tests use faultinject.Clock, which behaves identically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	if err := b.Charge(1 << 40); err != nil {
		t.Fatalf("nil budget Charge: %v", err)
	}
	if err := b.Check(); err != nil {
		t.Fatalf("nil budget Check: %v", err)
	}
	b.Cancel() // must not panic
	if b.Cancelled() {
		t.Fatal("nil budget reports cancelled")
	}
	if n := b.Nodes(); n != 0 {
		t.Fatalf("nil budget Nodes = %d", n)
	}
	if _, ok := b.Deadline(); ok {
		t.Fatal("nil budget has a deadline")
	}
}

func TestCancel(t *testing.T) {
	b := New(Options{})
	if err := b.Check(); err != nil {
		t.Fatalf("fresh budget: %v", err)
	}
	b.Cancel()
	if !b.Cancelled() {
		t.Fatal("Cancelled false after Cancel")
	}
	for name, err := range map[string]error{"Charge": b.Charge(1), "Check": b.Check()} {
		if !errors.Is(err, ErrCancelled) {
			t.Errorf("%s after Cancel = %v, want ErrCancelled", name, err)
		}
		if !errors.Is(err, ErrExhausted) {
			t.Errorf("%s after Cancel does not match ErrExhausted", name)
		}
	}
}

func TestNodeCap(t *testing.T) {
	b := New(Options{MaxNodes: 100})
	for i := 0; i < 100; i++ {
		if err := b.Charge(1); err != nil {
			t.Fatalf("charge %d within cap: %v", i, err)
		}
	}
	err := b.Charge(1)
	if !errors.Is(err, ErrNodeCap) || !errors.Is(err, ErrExhausted) {
		t.Fatalf("charge past cap = %v, want ErrNodeCap", err)
	}
	if b.Nodes() != 101 {
		t.Fatalf("Nodes = %d, want 101", b.Nodes())
	}
	if !errors.Is(b.Check(), ErrNodeCap) {
		t.Fatalf("Check past cap = %v, want ErrNodeCap", b.Check())
	}
}

func TestDeadlineWithFakeClock(t *testing.T) {
	clk := newFakeClock()
	b := New(Options{Timeout: time.Second, Clock: clk.Now})
	// An injected clock is consulted on every charge — no striding — so the
	// very first charge after the deadline passes must trip.
	if err := b.Charge(1); err != nil {
		t.Fatalf("charge before deadline: %v", err)
	}
	clk.Advance(999 * time.Millisecond)
	if err := b.Charge(1); err != nil {
		t.Fatalf("charge 1ms before deadline: %v", err)
	}
	clk.Advance(time.Millisecond)
	err := b.Charge(1)
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, ErrExhausted) {
		t.Fatalf("charge at deadline = %v, want ErrDeadline", err)
	}
}

func TestAbsoluteDeadline(t *testing.T) {
	clk := newFakeClock()
	dl := clk.Now().Add(time.Minute)
	b := New(Options{Deadline: dl, Clock: clk.Now})
	if got, ok := b.Deadline(); !ok || !got.Equal(dl) {
		t.Fatalf("Deadline = %v,%v, want %v,true", got, ok, dl)
	}
	// Timeout and Deadline combined: the earlier instant wins.
	b2 := New(Options{Deadline: dl, Timeout: time.Second, Clock: clk.Now})
	if got, _ := b2.Deadline(); !got.Equal(clk.Now().Add(time.Second)) {
		t.Fatalf("combined deadline = %v, want timeout to win", got)
	}
	clk.Advance(2 * time.Second)
	if err := b2.Check(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Check past combined deadline = %v", err)
	}
	if err := b.Check(); err != nil {
		t.Fatalf("Check before absolute deadline = %v", err)
	}
}

func TestStridedRealClockDeadline(t *testing.T) {
	// Under the real clock the deadline is detected within clockStride
	// charges even when it passed before the first one.
	b := New(Options{Deadline: time.Now().Add(-time.Hour)})
	for i := 1; i <= clockStride; i++ {
		if err := b.Charge(1); err != nil {
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("charge %d: %v, want ErrDeadline", i, err)
			}
			return
		}
	}
	t.Fatalf("expired deadline not detected within %d charges", clockStride)
}

func TestWithTimeoutSharesCancelAndNodes(t *testing.T) {
	clk := newFakeClock()
	parent := New(Options{MaxNodes: 10, Clock: clk.Now})
	child := parent.WithTimeout(time.Second)

	// Nodes charged to the child count against the parent's cap.
	if err := child.Charge(8); err != nil {
		t.Fatalf("child charge: %v", err)
	}
	if parent.Nodes() != 8 {
		t.Fatalf("parent Nodes = %d, want 8", parent.Nodes())
	}

	// The child's deadline does not constrain the parent.
	clk.Advance(2 * time.Second)
	if err := child.Check(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("child past timeout = %v", err)
	}
	if err := parent.Check(); errors.Is(err, ErrDeadline) {
		t.Fatal("parent inherited the child's deadline")
	}

	if err := parent.Charge(5); !errors.Is(err, ErrNodeCap) {
		t.Fatalf("parent charge past shared cap = %v", err)
	}

	// Cancel flows downward only: the child's Cancel retires the child
	// without touching the parent, so `defer child.Cancel()` is always safe.
	child.Cancel()
	if !child.Cancelled() {
		t.Fatal("child not cancelled by its own Cancel")
	}
	if parent.Cancelled() {
		t.Fatal("child Cancel leaked upward to the parent")
	}
}

func TestCancelFlowsDownward(t *testing.T) {
	parent := New(Options{})
	child := parent.WithTimeout(time.Hour)
	grandchild := child.WithTimeout(time.Hour)
	sibling := parent.WithTimeout(time.Hour)

	child.Cancel()
	if !grandchild.Cancelled() {
		t.Fatal("grandchild survived its parent's Cancel")
	}
	if sibling.Cancelled() || parent.Cancelled() {
		t.Fatal("Cancel escaped the cancelled subtree")
	}
	if err := grandchild.Check(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("grandchild Check = %v, want ErrCancelled", err)
	}
	if err := sibling.Check(); err != nil {
		t.Fatalf("sibling Check = %v, want nil", err)
	}

	parent.Cancel()
	if !sibling.Cancelled() {
		t.Fatal("root Cancel did not reach the sibling subtree")
	}
}

func TestWithTimeoutTightensOnly(t *testing.T) {
	clk := newFakeClock()
	parent := New(Options{Timeout: time.Second, Clock: clk.Now})
	loose := parent.WithTimeout(time.Hour)
	pd, _ := parent.Deadline()
	if ld, _ := loose.Deadline(); !ld.Equal(pd) {
		t.Fatalf("child deadline %v loosened past parent %v", ld, pd)
	}
	if same := parent.WithTimeout(0); func() time.Time { d, _ := same.Deadline(); return d }() != pd {
		t.Fatal("non-positive timeout changed the deadline")
	}
}

func TestWithTimeoutOnNil(t *testing.T) {
	var b *Budget
	if b.WithTimeout(0) != nil {
		t.Fatal("nil.WithTimeout(0) should stay nil (unlimited)")
	}
	child := b.WithTimeout(time.Hour)
	if child == nil {
		t.Fatal("nil.WithTimeout(1h) returned nil")
	}
	if _, ok := child.Deadline(); !ok {
		t.Fatal("derived budget has no deadline")
	}
	if err := child.Check(); err != nil {
		t.Fatalf("derived budget Check: %v", err)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		err   error
		match error
	}{
		{ErrCancelled, ErrExhausted},
		{ErrDeadline, ErrExhausted},
		{ErrNodeCap, ErrExhausted},
		{fmt.Errorf("sched: %w", ErrCancelled), ErrCancelled},
		{fmt.Errorf("sched: %w", ErrCancelled), ErrExhausted},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.match) {
			t.Errorf("errors.Is(%v, %v) = false", c.err, c.match)
		}
	}
	if errors.Is(ErrCancelled, ErrDeadline) {
		t.Error("ErrCancelled matches ErrDeadline")
	}
	if errors.Is(ErrExhausted, ErrCancelled) {
		t.Error("bare ErrExhausted matches the specific ErrCancelled")
	}
	for _, e := range []*Error{ErrCancelled, ErrDeadline, ErrNodeCap} {
		if e.Error() == "" {
			t.Error("empty error string")
		}
	}
	if (Reason(99)).String() == "" {
		t.Error("unknown reason has empty String")
	}
}

func TestConcurrentCancelLandsQuickly(t *testing.T) {
	b := New(Options{})
	done := make(chan int64, 1)
	go func() {
		var n int64
		for b.Charge(1) == nil {
			n++
		}
		done <- n
	}()
	time.Sleep(5 * time.Millisecond)
	b.Cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("worker did not observe Cancel within 1s")
	}
}

// TestChargeRunMatchesChargeLoop pins ChargeRun to its definition: a run of
// n nodes succeeds as far as n back-to-back Charge(1) calls would, fails
// with the same error at the same call, and leaves the same node count on
// every meter. Twin budgets, one charged per node and one per run, walk the
// same schedule of runs past node caps, expired deadlines under both clock
// modes, WithNodes children with caps at both levels, and cancellation.
func TestChargeRunMatchesChargeLoop(t *testing.T) {
	past := time.Unix(1, 0)
	top := func(opt Options) func() *Budget { return func() *Budget { return New(opt) } }
	cases := []struct {
		name string
		mk   func() *Budget
		runs []int64
	}{
		{"unlimited", top(Options{}), []int64{1, 7, 0, 64}},
		{"cap inside a run", top(Options{MaxNodes: 10}), []int64{3, 4, 9, 1, 5}},
		{"cap at a run end", top(Options{MaxNodes: 12}), []int64{6, 6, 1}},
		{"cap already spent", top(Options{MaxNodes: 2}), []int64{2, 5}},
		{"injected clock expired", func() *Budget {
			clk := newFakeClock()
			return New(Options{Deadline: past, Clock: clk.Now})
		}, []int64{5, 1}},
		{"real clock expired", top(Options{Deadline: past}), []int64{3, 40, 50, 100}},
		{"real clock and cap", top(Options{Deadline: past, MaxNodes: 20}), []int64{10, 15, 80}},
		{"real clock cap first", top(Options{Deadline: past, MaxNodes: 70}), []int64{60, 30}},
		{"real clock live", top(Options{Timeout: time.Hour, MaxNodes: 300}), []int64{100, 100, 150}},
		{"child cap first", func() *Budget { return New(Options{MaxNodes: 50}).WithNodes(10) }, []int64{4, 9, 3}},
		{"parent cap first", func() *Budget { return New(Options{MaxNodes: 10}).WithNodes(50) }, []int64{4, 9, 3}},
		{"parent partly spent", func() *Budget {
			p := New(Options{MaxNodes: 12})
			p.Charge(5)
			return p.WithNodes(10)
		}, []int64{6, 4}},
		{"child of a timeout child", func() *Budget {
			return New(Options{Deadline: past, MaxNodes: 70}).WithTimeout(time.Hour).WithNodes(30)
		}, []int64{20, 20, 50}},
		{"grandchild", func() *Budget {
			return New(Options{MaxNodes: 40}).WithNodes(25).WithTimeout(time.Hour).WithNodes(12)
		}, []int64{5, 10, 30}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			loop, run := c.mk(), c.mk()
			for i, n := range c.runs {
				var wantOK int64
				var wantErr error
				for ; wantOK < n; wantOK++ {
					if wantErr = loop.Charge(1); wantErr != nil {
						break
					}
				}
				gotOK, gotErr := run.ChargeRun(n)
				if gotOK != wantOK || gotErr != wantErr {
					t.Fatalf("run %d of %d: ChargeRun = (%d, %v), Charge loop = (%d, %v)", i, n, gotOK, gotErr, wantOK, wantErr)
				}
				for rm, lm := run.m, loop.m; rm != nil; rm, lm = rm.up, lm.up {
					if rm.nodes.Load() != lm.nodes.Load() {
						t.Fatalf("run %d: ChargeRun leaves a meter at %d nodes, Charge loop at %d",
							i, rm.nodes.Load(), lm.nodes.Load())
					}
				}
				if run.s.ticks.Load() != loop.s.ticks.Load() {
					t.Fatalf("run %d: ChargeRun leaves ticks %d, Charge loop %d",
						i, run.s.ticks.Load(), loop.s.ticks.Load())
				}
			}
		})
	}

	t.Run("cancelled", func(t *testing.T) {
		b := New(Options{MaxNodes: 100})
		b.Cancel()
		if ok, err := b.ChargeRun(5); ok != 0 || !errors.Is(err, ErrCancelled) || b.Nodes() != 0 {
			t.Fatalf("cancelled ChargeRun = (%d, %v) with %d nodes, want (0, ErrCancelled) and none charged", ok, err, b.Nodes())
		}
	})
	t.Run("nil", func(t *testing.T) {
		var b *Budget
		if ok, err := b.ChargeRun(9); ok != 9 || err != nil {
			t.Fatalf("nil ChargeRun = (%d, %v), want (9, nil)", ok, err)
		}
	})
}

// TestWithNodes checks a WithNodes child: its Check and Charge see its own
// cap, its Nodes counts only what was charged through it, and the parent's
// Nodes includes the child's charges. Cancellation flows down into the
// child and not back up.
func TestWithNodes(t *testing.T) {
	parent := New(Options{MaxNodes: 100})
	if err := parent.Charge(30); err != nil {
		t.Fatal(err)
	}
	child := parent.WithNodes(20)
	if err := child.Charge(20); err != nil {
		t.Fatalf("charge up to the child cap: %v", err)
	}
	if child.Nodes() != 20 || parent.Nodes() != 50 {
		t.Fatalf("Nodes: child %d, parent %d; want 20, 50", child.Nodes(), parent.Nodes())
	}
	if err := child.Check(); !errors.Is(err, ErrNodeCap) {
		t.Fatalf("child Check at its cap = %v, want ErrNodeCap", err)
	}
	if err := parent.Check(); err != nil {
		t.Fatalf("parent Check under its cap = %v", err)
	}
	if err := child.Charge(1); !errors.Is(err, ErrNodeCap) {
		t.Fatalf("child Charge past its cap = %v, want ErrNodeCap", err)
	}
	if parent.Nodes() != 51 {
		t.Fatalf("parent Nodes = %d, want 51: a failing child charge still counts", parent.Nodes())
	}

	// A parent cap binds the child even below the child's own cap.
	wide := New(Options{MaxNodes: 10}).WithNodes(1000)
	if err := wide.Charge(11); !errors.Is(err, ErrNodeCap) {
		t.Fatalf("charge past the parent cap through the child = %v, want ErrNodeCap", err)
	}

	if parent.WithNodes(0) != parent {
		t.Fatal("WithNodes(0) must return the receiver")
	}
	var nilBudget *Budget
	if nilBudget.WithNodes(0) != nil {
		t.Fatal("nil WithNodes(0) must stay nil")
	}
	if err := nilBudget.WithNodes(3).Charge(4); !errors.Is(err, ErrNodeCap) {
		t.Fatalf("nil WithNodes(3) after 4 nodes = %v, want ErrNodeCap", err)
	}

	clk := newFakeClock()
	timed := New(Options{Timeout: time.Second, Clock: clk.Now})
	sub := timed.WithNodes(5)
	clk.Advance(time.Second)
	if err := sub.Check(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("child past the parent deadline = %v, want ErrDeadline", err)
	}
	sub.Cancel()
	if timed.Cancelled() {
		t.Fatal("child Cancel leaked upward to the parent")
	}
	other := timed.WithNodes(5)
	timed.Cancel()
	if !other.Cancelled() {
		t.Fatal("parent Cancel did not reach the child")
	}
}

// TestWithOwnNote: every WithOwnNote child of one root notes its own first
// failure, while WithTimeout children share the root's single note.
func TestWithOwnNote(t *testing.T) {
	tr := obs.New()
	root := New(Options{Trace: tr})
	for i := 0; i < 3; i++ {
		req := root.WithOwnNote()
		req.Cancel()
		if err := req.Check(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("cancelled child Check = %v, want ErrCancelled", err)
		}
		if root.Cancelled() {
			t.Fatal("child Cancel leaked upward to the root")
		}
	}
	for i := 0; i < 3; i++ {
		child := root.WithTimeout(time.Hour)
		child.Cancel()
		_ = child.Check()
	}
	if got := countEvents(tr, "budget.exhausted"); got != 4 {
		t.Fatalf("budget.exhausted events = %d, want 3 own notes + 1 shared", got)
	}
	var nilBudget *Budget
	if nilBudget.WithOwnNote() != nil {
		t.Fatal("nil WithOwnNote must stay nil")
	}
}

func countEvents(tr *obs.Trace, name string) int {
	n := 0
	for _, e := range tr.Snapshot().Events {
		if e.Name == name {
			n++
		}
	}
	return n
}
