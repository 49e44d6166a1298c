package solve

import (
	"errors"
	"time"

	"resched/internal/budget"
	"resched/internal/obs"
)

// instrumented decorates a registered solver with the uniform observability
// every frontend gets for free: a span on a trace lane of its own and a
// request-latency histogram per solve, request/error counters, the
// ladder-rung counter for the robust solver, and a budget-exhaustion
// flight-recorder event. The decorator is applied once, at Register time,
// so per-solver wiring cannot drift — any solver reachable through
// Get/List is instrumented.
//
// All recording goes through the request's Trace: with a nil Trace the
// decorator is a single branch and the wrapped solver runs untouched, and
// because package obs never feeds back into scheduling, instrumented and
// uninstrumented runs produce identical schedules (TestTracingDeterminism).
type instrumented struct {
	inner Solver
}

// Name forwards the registry name of the wrapped solver.
func (w instrumented) Name() string { return w.inner.Name() }

// Solve runs the wrapped solver and records the uniform metrics. The solve
// records on its own lane of the request's trace, nested under the caller's
// open span, so concurrent Solve calls sharing one trace (a daemon's solver
// workers) keep each solver's spans under its own solve span.
func (w instrumented) Solve(req *Request) (*Result, error) {
	if req.Trace == nil {
		return w.inner.Solve(req)
	}
	tr := req.Trace.Lane()
	laned := *req
	laned.Trace = tr
	name := w.inner.Name()
	prefix := "solve." + name
	sp := tr.Start(prefix)
	begin := time.Now()
	res, err := w.inner.Solve(&laned)
	elapsed := time.Since(begin)
	tr.Observe(prefix+".latency_us", float64(elapsed.Nanoseconds())/1e3)
	tr.Count(prefix+".requests", 1)
	if err != nil {
		tr.Count(prefix+".errors", 1)
		if errors.Is(err, budget.ErrExhausted) {
			tr.Event("solve.budget_exhausted",
				obs.Str("solver", name), obs.Str("reason", budgetReason(err)))
		}
		sp.End(obs.Str("outcome", "error"))
		return res, err
	}
	if res.Ladder != nil {
		tr.Count(prefix+".rung."+res.Ladder.Rung.String(), 1)
	}
	sp.End(obs.Str("outcome", "ok"))
	return res, err
}

// budgetReason extracts the specific exhaustion reason from a budget error
// chain ("cancelled", "deadline passed", "node cap reached").
func budgetReason(err error) string {
	var be *budget.Error
	if errors.As(err, &be) {
		return be.Reason.String()
	}
	return "exhausted"
}
