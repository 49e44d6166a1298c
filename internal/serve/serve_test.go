package serve

// The robustness matrix: every serving-tier failure path exercised
// deterministically — injected clocks move time, faultinject forces the
// shed path, and two purpose-built registry solvers (test-block,
// test-panic) put the worker pool into the exact states the admission and
// drain machinery must survive. No test here sleeps to "wait for load";
// blocking solvers signal when they hold a worker, and drain timeouts run
// on a hand-advanced clock.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/obs"
	"resched/internal/sched"
	"resched/internal/solve"
)

// blockControl steers the test-block solver for one test at a time.
type blockControl struct {
	started chan struct{} // one signal per solve that has captured a worker
	release chan struct{} // closed to let captured solves finish
}

var blockCtl atomic.Pointer[blockControl]

// arm installs a fresh control and returns it.
func arm() *blockControl {
	ctl := &blockControl{started: make(chan struct{}, 16), release: make(chan struct{})}
	blockCtl.Store(ctl)
	return ctl
}

type stubSolver struct {
	name string
	fn   func(*solve.Request) (*solve.Result, error)
}

func (s *stubSolver) Name() string                                  { return s.name }
func (s *stubSolver) Solve(r *solve.Request) (*solve.Result, error) { return s.fn(r) }

var registerOnce sync.Once

// registerTestSolvers adds the two adversarial solvers the matrix needs:
// test-block holds a worker until released (or until its budget cancels —
// the budgetloop discipline real solvers follow), test-panic dies outright.
func registerTestSolvers() {
	registerOnce.Do(func() {
		solve.Register(&stubSolver{name: "test-block", fn: func(r *solve.Request) (*solve.Result, error) {
			ctl := blockCtl.Load()
			if ctl == nil {
				return nil, fmt.Errorf("test-block: no control armed")
			}
			ctl.started <- struct{}{}
			for {
				select {
				case <-ctl.release:
					sch, err := sched.SoftwareOnlyScheduleFrom(r.Graph, r.Arch, nil)
					if err != nil {
						return nil, err
					}
					return &solve.Result{Schedule: sch, Makespan: sch.Makespan}, nil
				default:
				}
				if r.Options.Budget.Cancelled() {
					return nil, fmt.Errorf("test-block: %w", budget.ErrCancelled)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}})
		solve.Register(&stubSolver{name: "test-panic", fn: func(r *solve.Request) (*solve.Result, error) {
			panic("deliberate test-panic")
		}})
	})
}

// graphJSON returns a seeded benchgen graph as wire JSON.
func graphJSON(t *testing.T, tasks int, seed int64) json.RawMessage {
	t.Helper()
	g, err := benchgen.Generate(benchgen.Config{Tasks: tasks, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// body marshals a wire request.
func body(t *testing.T, req map[string]any) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postRec drives the handler directly with a recorder (no network, no
// real-server goroutines) and decodes the response into out.
func postRec(t *testing.T, h http.Handler, payload []byte, out any) int {
	t.Helper()
	return postRecCtx(t, h, payload, out, context.Background())
}

func postRecCtx(t *testing.T, h http.Handler, payload []byte, out any, ctx context.Context) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(payload)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", rec.Body.String(), err)
		}
	}
	return rec.Code
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	registerTestSolvers()
	s := New(cfg)
	t.Cleanup(func() { s.Drain() })
	return s
}

func TestSolveHappyPath(t *testing.T) {
	s := newServer(t, Config{Trace: obs.New()})
	h := s.Handler()
	payload := body(t, map[string]any{
		"solver": "pa", "graph": graphJSON(t, 16, 7), "include_schedule": true,
	})
	var resp SolveResponse
	if code := postRec(t, h, payload, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Solver != "pa" || resp.Degraded || resp.Makespan <= 0 {
		t.Fatalf("unexpected response: %+v", resp)
	}
	if len(resp.Schedule) == 0 {
		t.Fatal("include_schedule did not return the schedule")
	}
	// The same request is bit-deterministic across dispatches (pooled
	// scratch must not bleed state between requests).
	var again SolveResponse
	if code := postRec(t, h, payload, &again); code != http.StatusOK {
		t.Fatalf("second status %d", code)
	}
	if again.Makespan != resp.Makespan || !bytes.Equal(again.Schedule, resp.Schedule) {
		t.Fatal("repeated request diverged: scratch state leaked between requests")
	}

	var health Health
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.State != "accepting" || health.Accepted != 2 || health.Completed != 2 {
		t.Fatalf("healthz: %+v", health)
	}
}

func TestBadRequestsAreRejectedAtAdmission(t *testing.T) {
	s := newServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty body", []byte("")},
		{"no graph", body(t, map[string]any{"solver": "pa"})},
		{"unknown field", []byte(`{"solver":"pa","graph":{},"bogus":1}`)},
		{"unknown solver", body(t, map[string]any{"solver": "nope", "graph": graphJSON(t, 8, 1)})},
		{"unknown arch", body(t, map[string]any{"arch": "nope", "graph": graphJSON(t, 8, 1)})},
		{"malformed graph", []byte(`{"graph":{"tasks":"x"}}`)},
	}
	for _, tc := range cases {
		var er ErrorResponse
		if code := postRec(t, h, tc.payload, &er); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		} else if er.Reason != "bad-request" {
			t.Errorf("%s: reason %q", tc.name, er.Reason)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/solve", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve: status %d", rec.Code)
	}
}

// TestDeadlineBudget504 is the deadline-propagation row: a 5ms request
// budget on a hand-advanced clock, a solver whose floorplan step injects
// 10ms of latency and one forced-infeasible retry. The budget check at the
// retry boundary trips ErrDeadline mid-solve, and the client gets a 504
// whose body still carries a valid all-software schedule.
func TestDeadlineBudget504(t *testing.T) {
	fc := faultinject.NewClock()
	faults := faultinject.New()
	faults.SetSolverLatency(10*time.Millisecond, fc)
	faults.ForceFloorplanInfeasible(1)
	s := newServer(t, Config{Clock: fc.Now, Faults: faults, Trace: obs.New()})

	payload := body(t, map[string]any{
		"solver": "pa", "graph": graphJSON(t, 16, 7), "timeout_ms": 5,
	})
	var er ErrorResponse
	if code := postRec(t, s.Handler(), payload, &er); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	if er.Reason != "deadline passed" {
		t.Fatalf("reason %q, want \"deadline passed\"", er.Reason)
	}
	if er.Partial == nil || er.Partial.Makespan <= 0 || er.Partial.Rung != solve.SoftwareOnly.String() {
		t.Fatalf("504 must carry the all-software partial result, got %+v", er.Partial)
	}
}

// TestExactHonoursRequestBudget: the exact reference runs under the request
// budget like every solver. A 10ms timeout (on the real clock) and a
// 1000-node max_nodes each end an 11-task exhaustive search, which runs for
// seconds unbounded, in a 504 carrying the all-software partial result.
func TestExactHonoursRequestBudget(t *testing.T) {
	s := newServer(t, Config{})
	for _, tc := range []struct {
		limit  string
		value  int
		reason string
	}{
		{"timeout_ms", 10, "deadline passed"},
		{"max_nodes", 1000, "node cap reached"},
	} {
		t.Run(tc.limit, func(t *testing.T) {
			payload := body(t, map[string]any{
				"solver": "exact", "graph": graphJSON(t, 11, 2024), tc.limit: tc.value,
			})
			var er ErrorResponse
			if code := postRec(t, s.Handler(), payload, &er); code != http.StatusGatewayTimeout {
				t.Fatalf("status %d, want 504", code)
			}
			if er.Reason != tc.reason {
				t.Fatalf("reason %q, want %q", er.Reason, tc.reason)
			}
			if er.Partial == nil || er.Partial.Makespan <= 0 || er.Partial.Rung != solve.SoftwareOnly.String() {
				t.Fatalf("504 must carry the all-software partial result, got %+v", er.Partial)
			}
		})
	}
}

// TestBudgetExhaustedPerRequest: every request budget notes its own
// exhaustion. Three exact requests that each run out of time leave three
// budget.exhausted events, not one per daemon lifetime.
func TestBudgetExhaustedPerRequest(t *testing.T) {
	tr := obs.New()
	s := newServer(t, Config{Trace: tr})
	payload := body(t, map[string]any{
		"solver": "exact", "graph": graphJSON(t, 11, 2024), "timeout_ms": 10,
	})
	for i := 0; i < 3; i++ {
		if code := postRec(t, s.Handler(), payload, nil); code != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status %d, want 504", i, code)
		}
	}
	n := 0
	for _, e := range tr.Snapshot().Events {
		if e.Name == "budget.exhausted" {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("budget.exhausted events = %d, want one per request (3)", n)
	}
}

// TestMaxBudgetClampsRequests: a client asking for an hour still runs under
// the server's MaxBudget. Same latency trap as above, but the request asks
// for a huge timeout and the 5ms server clamp is what trips.
func TestMaxBudgetClampsRequests(t *testing.T) {
	fc := faultinject.NewClock()
	faults := faultinject.New()
	faults.SetSolverLatency(10*time.Millisecond, fc)
	faults.ForceFloorplanInfeasible(1)
	s := newServer(t, Config{Clock: fc.Now, Faults: faults, MaxBudget: 5 * time.Millisecond})

	payload := body(t, map[string]any{
		"solver": "pa", "graph": graphJSON(t, 16, 7), "timeout_ms": 3_600_000,
	})
	var er ErrorResponse
	if code := postRec(t, s.Handler(), payload, &er); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 via server clamp", code)
	}
	if er.Reason != "deadline passed" {
		t.Fatalf("reason %q", er.Reason)
	}
}

// TestClientCancelPropagates is the disconnect row: the request context is
// already cancelled, context.AfterFunc trips the request budget, and the
// in-flight solver (which polls its budget, like every real solver) unwinds
// into a 504/cancelled with the partial result attached.
func TestClientCancelPropagates(t *testing.T) {
	s := newServer(t, Config{})
	arm() // release stays open: the cancelled budget is the solver's only exit

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	payload := body(t, map[string]any{"solver": "test-block", "graph": graphJSON(t, 8, 3)})
	var er ErrorResponse
	if code := postRecCtx(t, s.Handler(), payload, &er, ctx); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	if er.Reason != "cancelled" {
		t.Fatalf("reason %q, want \"cancelled\"", er.Reason)
	}
	if er.Partial == nil || er.Partial.Makespan <= 0 {
		t.Fatalf("cancelled request must still carry the partial result, got %+v", er.Partial)
	}
}

// TestQueueFullFault429 is the load-shed row driven by the chaos hook: a
// forced queue-full admission sheds with 429 + Retry-After while the very
// next request sails through.
func TestQueueFullFault429(t *testing.T) {
	faults := faultinject.New()
	faults.ForceQueueFull(1)
	s := newServer(t, Config{Faults: faults, RetryAfter: 2 * time.Second, Trace: obs.New()})
	h := s.Handler()

	payload := body(t, map[string]any{"solver": "pa", "graph": graphJSON(t, 12, 5)})
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", got)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Reason != "queue-full" || er.RetryAfterMS != 2000 {
		t.Fatalf("shed body: %+v", er)
	}
	if faults.Fired(faultinject.FaultServeQueueFull) != 1 {
		t.Fatal("fault did not fire")
	}

	var resp SolveResponse
	if code := postRec(t, h, payload, &resp); code != http.StatusOK {
		t.Fatalf("post-shed status %d", code)
	}
	if s.shed.Load() != 1 || s.accepted.Load() != 1 {
		t.Fatalf("counters: shed=%d accepted=%d", s.shed.Load(), s.accepted.Load())
	}
}

// TestPressureDegradesThenSheds is the admission-ladder row under real
// queue pressure: one worker wedged by test-block, the queue filled to the
// degrade threshold, then past the reject threshold. Requests admitted
// above the degrade line run one rung cheaper (is5 → is1) and say so;
// requests above the reject line get 429.
func TestPressureDegradesThenSheds(t *testing.T) {
	s := newServer(t, Config{
		Workers: 1, QueueDepth: 4, DegradeAt: 0.5, RejectAt: 1.0, Trace: obs.New(),
	})
	h := s.Handler()
	ctl := arm()

	// Wedge the single worker.
	blockPayload := body(t, map[string]any{"solver": "test-block", "graph": graphJSON(t, 8, 2)})
	results := make(chan int, 8)
	var wg sync.WaitGroup
	launch := func(payload []byte, resp any) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- postRec(t, h, payload, resp)
		}()
	}
	launch(blockPayload, nil)
	<-ctl.started // the worker is now held

	// Two requests below the degrade threshold (admitted at occupancy 0
	// and 1; the wedged blocker already counts as accepted #1).
	is5 := body(t, map[string]any{"solver": "is5", "graph": graphJSON(t, 10, 4)})
	var b, c SolveResponse
	launch(is5, &b)
	waitCounter(t, &s.accepted, 2)
	launch(is5, &c)
	waitCounter(t, &s.accepted, 3)

	// Occupancy 2 ≥ degrade threshold: these two are shed one rung down.
	var d, e SolveResponse
	launch(is5, &d)
	waitCounter(t, &s.accepted, 4)
	launch(is5, &e)
	waitCounter(t, &s.accepted, 5)

	// Occupancy 4 ≥ reject threshold: refused outright, synchronously.
	var er ErrorResponse
	if code := postRec(t, h, is5, &er); code != http.StatusTooManyRequests {
		t.Fatalf("over-threshold status %d, want 429", code)
	}
	if er.Reason != "queue-full" {
		t.Fatalf("reason %q", er.Reason)
	}

	close(ctl.release)
	wg.Wait()
	close(results)
	for code := range results {
		if code != http.StatusOK {
			t.Fatalf("an admitted request answered %d", code)
		}
	}
	for name, r := range map[string]*SolveResponse{"b": &b, "c": &c} {
		if r.Degraded || r.Solver != "is5" {
			t.Errorf("%s admitted below the degrade line but ran %q degraded=%v", name, r.Solver, r.Degraded)
		}
	}
	for name, r := range map[string]*SolveResponse{"d": &d, "e": &e} {
		if !r.Degraded || r.Solver != "is1" || r.ShedFrom != "is5" {
			t.Errorf("%s should have been shed is5→is1, got %+v", name, r)
		}
	}
	if s.degraded.Load() != 2 || s.shed.Load() != 1 {
		t.Fatalf("counters: degraded=%d shed=%d", s.degraded.Load(), s.shed.Load())
	}
}

// waitCounter spins until an atomic counter reaches want; progress is
// guaranteed (the handler goroutines only need scheduler time), so this is
// a join, not a timing assumption.
func waitCounter(t *testing.T, c *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want %d", c.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestDegradeLadderMapping pins the whole shed ladder, including the
// robust in-place clamp that has no cheaper registered solver to move to.
func TestDegradeLadderMapping(t *testing.T) {
	s := newServer(t, Config{DegradedIterations: 4})
	cases := []struct {
		from, to string
	}{
		{"exact", "is1"}, {"is5", "is1"}, {"is1", "pa"}, {"par", "pa"},
	}
	for _, tc := range cases {
		j := &job{solver: tc.from, req: &SolveRequest{}}
		s.degrade(j)
		if j.solver != tc.to || j.shedFrom != tc.from || !j.degraded {
			t.Errorf("degrade(%s) = %s (shedFrom %s, degraded %v), want %s",
				tc.from, j.solver, j.shedFrom, j.degraded, tc.to)
		}
	}
	j := &job{solver: "robust", req: &SolveRequest{MaxIterations: 100, TimeBudgetMS: 5000}}
	s.degrade(j)
	if j.solver != "robust" || !j.degraded || j.req.MaxIterations != 4 || j.req.TimeBudgetMS != 0 {
		t.Errorf("robust clamp: %+v", j.req)
	}
	pa := &job{solver: "pa", req: &SolveRequest{}}
	s.degrade(pa)
	if pa.degraded {
		t.Error("pa is the cheapest rung and must pass through undegraded")
	}
}

// TestPanicIsolation: a panicking solver answers 500 and the daemon keeps
// serving on the same worker pool.
func TestPanicIsolation(t *testing.T) {
	s := newServer(t, Config{Workers: 1, Trace: obs.New()})
	h := s.Handler()
	var er ErrorResponse
	payload := body(t, map[string]any{"solver": "test-panic", "graph": graphJSON(t, 8, 9)})
	if code := postRec(t, h, payload, &er); code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", code)
	}
	if er.Reason != "panic" || !strings.Contains(er.Error, "deliberate test-panic") {
		t.Fatalf("panic body: %+v", er)
	}
	// The single worker survived; a normal request still completes on it.
	var resp SolveResponse
	ok := body(t, map[string]any{"solver": "pa", "graph": graphJSON(t, 12, 5)})
	if code := postRec(t, h, ok, &resp); code != http.StatusOK {
		t.Fatalf("post-panic status %d", code)
	}
	if s.panics.Load() != 1 {
		t.Fatalf("panics counter %d", s.panics.Load())
	}
}

// TestGracefulDrain: with a worker wedged and one request queued, Drain
// refuses late arrivals with 503, finishes everything already admitted and
// joins the pool without forcing.
func TestGracefulDrain(t *testing.T) {
	s := newServer(t, Config{Workers: 1, Trace: obs.New()})
	h := s.Handler()
	ctl := arm()

	var wedged, queued SolveResponse
	codes := make(chan int, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		codes <- postRec(t, h, body(t, map[string]any{"solver": "test-block", "graph": graphJSON(t, 8, 2)}), &wedged)
	}()
	<-ctl.started
	go func() {
		defer wg.Done()
		codes <- postRec(t, h, body(t, map[string]any{"solver": "pa", "graph": graphJSON(t, 12, 5)}), &queued)
	}()
	waitCounter(t, &s.accepted, 2)

	var rep DrainReport
	drained := make(chan struct{})
	go func() { rep = s.Drain(); close(drained) }()
	waitState(t, s, stateDraining)

	// A late request is refused, not dropped on the floor.
	var er ErrorResponse
	late := body(t, map[string]any{"solver": "pa", "graph": graphJSON(t, 8, 1)})
	if code := postRec(t, h, late, &er); code != http.StatusServiceUnavailable {
		t.Fatalf("late request status %d, want 503", code)
	}
	if er.Reason != "draining" || er.RetryAfterMS == 0 {
		t.Fatalf("late body: %+v", er)
	}

	close(ctl.release)
	<-drained
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request answered %d during drain", code)
		}
	}
	if rep.Forced || rep.InFlight != 1 || rep.Queued != 1 {
		t.Fatalf("drain report: %+v", rep)
	}
	if s.state != stateStopped {
		t.Fatal("server not stopped after drain")
	}
	// Drain is idempotent: a concurrent/second call returns immediately.
	s.Drain()
}

// TestDrainForcedCancel: the drain budget runs on the injected clock; when
// it expires the root budget cancels every in-flight request, which still
// answers (504), and the pool joins. Nothing is dropped even in a forced
// drain.
func TestDrainForcedCancel(t *testing.T) {
	fc := faultinject.NewClock()
	s := newServer(t, Config{
		Workers:     1,
		Clock:       fc.Now,
		DrainBudget: 5 * time.Millisecond,
		Sleep: func(d time.Duration) {
			fc.Advance(d)
			time.Sleep(50 * time.Microsecond) // yield so the wedged solver polls
		},
	})
	ctl := arm() // release stays open: only budget cancel can free the solver

	var er ErrorResponse
	code := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		code <- postRec(t, s.Handler(), body(t, map[string]any{"solver": "test-block", "graph": graphJSON(t, 8, 2)}), &er)
	}()
	<-ctl.started

	rep := s.Drain()
	wg.Wait()
	if got := <-code; got != http.StatusGatewayTimeout {
		t.Fatalf("force-cancelled request answered %d, want 504", got)
	}
	if er.Reason != "cancelled" {
		t.Fatalf("reason %q, want \"cancelled\"", er.Reason)
	}
	if !rep.Forced {
		t.Fatal("drain should have been forced by the expired drain budget")
	}
}

// TestSeededLoadAgainstFaultyServer is the acceptance run in miniature:
// concurrent seeded clients against a daemon with queue-full and
// floorplan-infeasible faults armed. Every request must end in a definite
// answer — 200 (robust absorbs the solver faults) or a retried 429 — with
// zero panics and a clean drain.
func TestSeededLoadAgainstFaultyServer(t *testing.T) {
	faults := faultinject.New()
	faults.ForceQueueFull(5)
	faults.ForceFloorplanInfeasible(8)
	s := newServer(t, Config{Workers: 2, QueueDepth: 8, Faults: faults, Trace: obs.New()})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	graphs := [][]byte{
		body(t, map[string]any{"graph": graphJSON(t, 12, 21)}),
		body(t, map[string]any{"graph": graphJSON(t, 16, 22)}),
		body(t, map[string]any{"graph": graphJSON(t, 20, 23)}),
	}
	const clients, total = 4, 24
	var next, ok, shedRetries atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				payload := graphs[int(i)%len(graphs)]
				for attempt := 0; ; attempt++ {
					resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(payload))
					if err != nil {
						t.Error(err)
						return
					}
					status := resp.StatusCode
					_ = resp.Body.Close()
					if status == http.StatusOK {
						ok.Add(1)
						break
					}
					if status == http.StatusTooManyRequests && attempt < 20 {
						shedRetries.Add(1)
						time.Sleep(time.Duration(1+i%3) * time.Millisecond)
						continue
					}
					t.Errorf("request %d: status %d after %d attempts", i, status, attempt+1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() != total {
		t.Fatalf("%d/%d requests succeeded", ok.Load(), total)
	}
	if s.panics.Load() != 0 {
		t.Fatalf("panics under load: %d", s.panics.Load())
	}
	if faults.Fired(faultinject.FaultServeQueueFull) != 5 {
		t.Fatalf("queue-full fault fired %d times, want 5", faults.Fired(faultinject.FaultServeQueueFull))
	}
	if shedRetries.Load() < 5 {
		t.Fatalf("expected every forced shed to be retried, saw %d retries", shedRetries.Load())
	}
	rep := s.Drain()
	if rep.Forced {
		t.Fatal("idle drain must not force")
	}
}

// waitState spins until the server reaches the given admission state.
func waitState(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		st := s.state
		s.mu.Unlock()
		if st == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("state stuck at %s, want %s", stateName(st), stateName(want))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWorkerArenaAcrossPresets: the pooled scratch a worker solves on
// outlives requests and moves between fabrics. On a one-worker pool without
// a cache, the same /solve must return the same schedule whatever presets
// that worker served before, equal to what a fresh server returns.
func TestWorkerArenaAcrossPresets(t *testing.T) {
	suite, err := benchgen.Suite(2016)
	if err != nil {
		t.Fatal(err)
	}
	presets := arch.PresetNames()
	for _, e := range suite {
		if e.Index != 0 || e.Group%20 != 0 {
			continue
		}
		var buf bytes.Buffer
		if err := e.Graph.Write(&buf); err != nil {
			t.Fatal(err)
		}
		payload := func(preset string) []byte {
			return body(t, map[string]any{
				"solver": "pa", "arch": preset, "graph": json.RawMessage(buf.Bytes()), "include_schedule": true,
			})
		}
		solveOn := func(h http.Handler, preset string) SolveResponse {
			var resp SolveResponse
			if code := postRec(t, h, payload(preset), &resp); code != http.StatusOK {
				t.Fatalf("group %d on %s: status %d", e.Group, preset, code)
			}
			return resp
		}
		for _, target := range presets {
			want := solveOn(newServer(t, Config{Workers: 1, CacheEntries: -1}).Handler(), target)
			h := newServer(t, Config{Workers: 1, CacheEntries: -1}).Handler()
			for _, before := range presets {
				if before == target {
					continue
				}
				solveOn(h, before)
				got := solveOn(h, target)
				if got.Makespan != want.Makespan || !bytes.Equal(got.Schedule, want.Schedule) {
					t.Fatalf("group %d on %s after %s: makespan %d, fresh server %d",
						e.Group, target, before, got.Makespan, want.Makespan)
				}
			}
		}
	}
}
