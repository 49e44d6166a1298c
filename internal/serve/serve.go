// Package serve is the scheduling-as-a-service tier: a stdlib-only HTTP
// layer over the unified solver engine (internal/solve) built so the engine
// survives hostile traffic — the robustness machinery is the headline, not
// an afterthought.
//
//	POST /solve     solve a (graph, arch, options) instance, JSON in/out
//	GET  /healthz   admission-control state and live counters
//	GET  /metrics   flat metrics JSON            (internal/obs/obshttp)
//	GET  /debug/*   trace, events, summary, pprof (internal/obs/obshttp)
//
// The serving discipline, end to end:
//
//   - Admission control. Requests pass through a bounded queue in front of
//     a fixed worker pool. Occupancy drives a three-level ladder: below
//     DegradeAt the request runs as asked; between DegradeAt and RejectAt
//     it is shed to a cheaper solver rung (exact/is5 → is1 → pa, par → pa,
//     robust keeps its ladder but with clamped search budgets) and the
//     response says so; at RejectAt — or when the queue is hard-full, or
//     when a forced queue-full fault is armed — the request is refused with
//     429 and a Retry-After, never silently dropped. Degrading before
//     rejecting is the same philosophy as the robust solver's ladder,
//     applied at the front door: under pressure every client still gets a
//     schedule, just a cheaper one.
//
//   - Budget ownership. Every dispatched request gets its own
//     *budget.Budget, derived from the server's root budget with
//     min(request timeout, MaxBudget) — the server-side clamp means no
//     client can buy an unbounded solve. The request's HTTP context is
//     bridged one-way into the budget (context.AfterFunc → Budget.Cancel),
//     so a client disconnect or net/http deadline cancels the solve within
//     microseconds; solver layers only ever borrow the budget, the serving
//     tier owns its lifetime. Budget exhaustion surfaces as 504 with a
//     partial-result body: the guaranteed all-software schedule, the same
//     bottom rung the robust ladder lands on.
//
//   - Panic isolation. A panicking solver converts to a 500 plus a
//     "serve.panic" flight-recorder event; the worker and the daemon
//     survive.
//
//   - Graceful drain. Drain stops admission (late requests get 503),
//     lets queued and in-flight work finish under a drain budget, and
//     cancels whatever outlives it through the root budget — every
//     admitted request gets a response, every worker goroutine is joined.
//
// Solves draw their scratch from package sched's state pool, so a
// long-lived daemon keeps the allocation diet of the batch pipeline across
// millions of requests. Deterministic fault injection reaches the serving
// path through faultinject.ServeDispatch (forced queue-full) without
// touching solver options, and the whole admission machine runs on an
// injectable clock, so every behaviour above has a hand-advanced,
// repeatable test.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/obs"
	"resched/internal/obs/obshttp"
	"resched/internal/sched"
	"resched/internal/schedcache"
	"resched/internal/solve"
)

// Config tunes the serving tier. The zero value of every field has a
// production-shaped default.
type Config struct {
	// Workers is the solver pool size (default 2).
	Workers int
	// QueueDepth bounds the admission queue (default 16).
	QueueDepth int
	// DegradeAt and RejectAt are queue-occupancy fractions: at DegradeAt
	// (default 0.5) requests are shed to cheaper solver rungs, at RejectAt
	// (default 0.9) they are refused with 429.
	DegradeAt float64
	RejectAt  float64
	// DegradedIterations caps the robust ladder's PA-R rung when a robust
	// request is degraded under pressure (default 4).
	DegradedIterations int
	// MaxBudget clamps every per-request budget (default 30s): a request
	// may ask for less, never more.
	MaxBudget time.Duration
	// DrainBudget bounds Drain (default 10s): in-flight work past it is
	// cancelled through the root budget.
	DrainBudget time.Duration
	// RetryAfter is the backoff hint on 429/503 responses (default 1s).
	RetryAfter time.Duration
	// DefaultArch names the board preset used when a request names none
	// (default "zedboard").
	DefaultArch string
	// MaxSessions bounds the concurrently open rolling-horizon sessions
	// (default 8): each holds a live online.Engine and its growing global
	// schedule, so the bound is a memory guard, not a throughput knob.
	MaxSessions int
	// CacheEntries bounds the server-owned schedule cache (default 256
	// entries); a negative value disables caching entirely. The cache is
	// wired per-server via schedcache.Wrap in the dispatch path — the
	// server must never also Install a process-global cache, or requests
	// would consult two.
	CacheEntries int

	// Clock is the budget time source (nil = wall clock); tests inject a
	// faultinject.Clock so deadline behaviour is hand-advanced.
	Clock budget.Clock
	// Sleep is the drain poll wait (nil = time.Sleep); tests advance the
	// fake clock here to make drain timeouts deterministic.
	Sleep func(time.Duration)
	// Faults, when armed, drives deterministic failure injection on the
	// serving path (ServeDispatch) and in every dispatched solver.
	Faults *faultinject.Set
	// Trace records the serve.* span/metric/event taxonomy and feeds the
	// /metrics and /debug surfaces. Nil disables recording (and leaves
	// the debug surface serving empty documents).
	Trace *obs.Trace
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DegradeAt <= 0 {
		c.DegradeAt = 0.5
	}
	if c.RejectAt <= 0 {
		c.RejectAt = 0.9
	}
	if c.DegradedIterations <= 0 {
		c.DegradedIterations = 4
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 30 * time.Second
	}
	if c.DrainBudget <= 0 {
		c.DrainBudget = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DefaultArch == "" {
		c.DefaultArch = "zedboard"
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Admission-control states. Transitions are one-way:
// accepting → draining → stopped.
const (
	stateAccepting = iota
	stateDraining
	stateStopped
)

// stateName maps the admission state onto /healthz.
func stateName(s int) string {
	switch s {
	case stateAccepting:
		return "accepting"
	case stateDraining:
		return "draining"
	default:
		return "stopped"
	}
}

// shedTo maps each solver to the next-cheaper rung of the serve-side
// degradation ladder. Solvers not listed (pa, robust) have no cheaper
// registered solver: pa is the cheapest search rung already, and robust
// degrades internally (its search budgets are clamped instead).
var shedTo = map[string]string{
	"exact": "is1",
	"is5":   "is1",
	"is1":   "pa",
	"par":   "pa",
}

// maxBodyBytes bounds a request body; a graph big enough to exceed it is
// far beyond anything the solvers accept.
const maxBodyBytes = 16 << 20

// drainPoll is the drain loop's wait between progress checks.
const drainPoll = time.Millisecond

// job is one admitted request travelling from the handler through the
// queue to a worker and back.
type job struct {
	req      *SolveRequest
	ctx      context.Context
	solver   string // solver to dispatch (post-degradation)
	shedFrom string // original solver when admission swapped it
	degraded bool
	enqueued time.Time

	// Outcome, written by the worker before done is closed.
	status int
	body   any
	times  stageTimes
	done   chan struct{}
}

// stageTimes splits one /solve request into the stages its Server-Timing
// header reports: the handler's decode, the wait in the queue, the cache's
// keying and probes, the solve, and building and encoding the response.
type stageTimes struct {
	decode, queue, cache, solve, encode time.Duration
}

// header renders the stages as a Server-Timing value, in milliseconds.
func (t *stageTimes) header() string {
	b := make([]byte, 0, 96)
	for i, st := range [...]struct {
		name string
		d    time.Duration
	}{{"decode", t.decode}, {"queue", t.queue}, {"cache", t.cache}, {"solve", t.solve}, {"encode", t.encode}} {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, st.name...)
		b = append(b, ";dur="...)
		b = strconv.AppendFloat(b, float64(st.d.Nanoseconds())/1e6, 'f', 3, 64)
	}
	return string(b)
}

// Server is the scheduling service: admission control, the worker pool and
// the drain machinery. Construct with New; serve via Handler; stop with
// Drain (or Close).
type Server struct {
	cfg              Config
	degradeThreshold int
	rejectThreshold  int

	mu    sync.Mutex // guards state and queue admission vs. close
	state int
	queue chan *job

	// Rolling-horizon sessions (session.go). sessMu guards the registry;
	// each session serializes its own engine.
	sessMu   sync.Mutex
	sessions map[string]*session
	sessSeq  int64

	root *budget.Budget // ancestor of every request budget; Cancel = abort all

	// cache is the server-owned schedule cache (nil when disabled): exact
	// request repeats skip the solver, near-misses warm-start it.
	cache *schedcache.Cache

	wg      sync.WaitGroup
	exited  atomic.Int64 // workers that have left their loop
	stopped chan struct{}

	inflight  atomic.Int64
	accepted  atomic.Int64
	completed atomic.Int64
	shed      atomic.Int64
	refused   atomic.Int64
	degraded  atomic.Int64
	panics    atomic.Int64
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *job, cfg.QueueDepth),
		root:     budget.New(budget.Options{Clock: cfg.Clock, Trace: cfg.Trace}),
		stopped:  make(chan struct{}),
		sessions: make(map[string]*session),
	}
	if cfg.CacheEntries > 0 {
		s.cache = schedcache.New(cfg.CacheEntries)
	}
	s.degradeThreshold = threshold(cfg.DegradeAt, cfg.QueueDepth)
	s.rejectThreshold = threshold(cfg.RejectAt, cfg.QueueDepth)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		// Workers live for the server's lifetime and are joined by Drain,
		// which closes the queue and waits for every loop to exit.
		//reschedvet:ignore goleak joined by (*Server).Drain, not by New's return
		go s.worker()
	}
	return s
}

// threshold converts an occupancy fraction into a queue-length trigger,
// clamped to [1, depth] so a tiny queue still has a working ladder.
func threshold(frac float64, depth int) int {
	t := int(frac * float64(depth))
	if t < 1 {
		t = 1
	}
	if t > depth {
		t = depth
	}
	return t
}

// Handler returns the service mux: /solve and /healthz from this package,
// /metrics and /debug/* from the obshttp debug surface, all on one mux so
// the daemon exposes a single port.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/session/open", s.handleSessionOpen)
	mux.HandleFunc("/session/submit", s.handleSessionSubmit)
	mux.HandleFunc("/session/close", s.handleSessionClose)
	mux.HandleFunc("/healthz", s.handleHealth)
	debug := obshttp.Handler(s.cfg.Trace)
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/", debug)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "resched scheduling service\n\n"+
			"POST /solve     solve a task-graph instance (JSON)\n"+
			"POST /session/open    open a rolling-horizon session\n"+
			"POST /session/submit  submit a job and re-plan the tail\n"+
			"POST /session/close   finalize the stitched schedule\n"+
			"GET  /healthz   admission state and counters\n"+
			"GET  /metrics   flat metrics JSON\n"+
			"GET  /debug/    trace, events, summary, pprof\n")
	})
	return mux
}

// Health is the /healthz document.
type Health struct {
	State      string `json:"state"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	Queued     int    `json:"queued"`
	InFlight   int64  `json:"in_flight"`
	Accepted   int64  `json:"accepted"`
	Completed  int64  `json:"completed"`
	Shed       int64  `json:"shed"`
	Refused    int64  `json:"refused_draining"`
	Degraded   int64  `json:"degraded"`
	Panics     int64  `json:"panics"`
	// Sessions counts the open rolling-horizon sessions.
	Sessions int `json:"sessions"`
	// Cache reports the schedule-cache counters; omitted when disabled.
	Cache *CacheHealth `json:"cache,omitempty"`
}

// CacheHealth is the /healthz view of the schedule cache.
type CacheHealth struct {
	Entries    int   `json:"entries"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	WarmStarts int64 `json:"warm_starts"`
	Evictions  int64 `json:"evictions"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	state, queued := s.state, len(s.queue)
	s.mu.Unlock()
	var cacheHealth *CacheHealth
	if s.cache != nil {
		st := s.cache.Stats()
		cacheHealth = &CacheHealth{
			Entries:    st.Entries,
			Hits:       st.Hits,
			Misses:     st.Misses,
			WarmStarts: st.WarmStarts,
			Evictions:  st.Evictions,
		}
	}
	writeJSON(w, http.StatusOK, Health{
		State:      stateName(state),
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Queued:     queued,
		InFlight:   s.inflight.Load(),
		Accepted:   s.accepted.Load(),
		Completed:  s.completed.Load(),
		Shed:       s.shed.Load(),
		Refused:    s.refused.Load(),
		Degraded:   s.degraded.Load(),
		Panics:     s.panics.Load(),
		Sessions:   s.sessionCount(),
		Cache:      cacheHealth,
	})
}

// handleSolve is the admission path: fault hook, decode, the shed ladder,
// enqueue, then wait for the worker's verdict. The handler goroutine is the
// only writer of the HTTP response; workers communicate through the job.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// The serving-path fault hook runs before admission so chaos tests
	// exercise forced queue-full without touching solver options.
	forceFull := s.cfg.Faults.ServeDispatch()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.reject(w, http.StatusBadRequest, "bad-request", fmt.Sprintf("reading body: %v", err), "")
		return
	}
	begin := time.Now()
	req, g, a, err := decodeRequest(body, s.cfg.DefaultArch)
	decode := time.Since(begin)
	s.cfg.Trace.Observe("serve.decode_us", float64(decode.Nanoseconds())/1e3)
	if err != nil {
		s.reject(w, http.StatusBadRequest, "bad-request", err.Error(), "")
		return
	}
	if _, err := solve.Get(req.Solver); err != nil {
		s.reject(w, http.StatusBadRequest, "bad-request", err.Error(), req.Solver)
		return
	}

	j := &job{req: req, ctx: r.Context(), solver: req.Solver, done: make(chan struct{})}
	j.req.graph, j.req.arch = g, a
	j.times.decode = decode
	if status, reason := s.admit(j, forceFull); status != 0 {
		s.reject(w, status, reason, "request not admitted: "+reason, req.Solver)
		return
	}
	<-j.done
	begin = time.Now()
	out := encodeBody(j.body)
	j.times.encode += time.Since(begin)
	w.Header().Set("Server-Timing", j.times.header())
	writeBody(w, j.status, out)
	s.cfg.Trace.Count("serve.status."+strconv.Itoa(j.status), 1)
}

// admit runs the admission ladder under the state lock: refuse while
// draining, shed at the reject threshold (or on a forced queue-full fault,
// or a hard-full queue), degrade at the degrade threshold, else enqueue.
func (s *Server) admit(j *job, forceFull bool) (status int, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateAccepting {
		s.refused.Add(1)
		s.cfg.Trace.Count("serve.refused_draining", 1)
		return http.StatusServiceUnavailable, "draining"
	}
	occ := len(s.queue)
	if forceFull || occ >= s.rejectThreshold {
		s.shed.Add(1)
		s.cfg.Trace.Count("serve.shed", 1)
		s.cfg.Trace.Event("serve.shed",
			obs.Str("solver", j.solver), obs.Int("queued", int64(occ)),
			obs.Bool("forced", forceFull))
		return http.StatusTooManyRequests, "queue-full"
	}
	if occ >= s.degradeThreshold {
		s.degrade(j)
	}
	j.enqueued = time.Now()
	select {
	case s.queue <- j:
		s.accepted.Add(1)
		s.cfg.Trace.Count("serve.accepted", 1)
		return 0, ""
	default:
		// The reject threshold normally fires first; this is the backstop
		// for thresholds tuned to the hard limit.
		s.shed.Add(1)
		s.cfg.Trace.Count("serve.shed", 1)
		return http.StatusTooManyRequests, "queue-full"
	}
}

// degrade sheds the job one rung down the serve ladder: cheaper registered
// solver where one exists, clamped search budgets for the robust ladder.
// The cheapest rung (pa) passes through untouched.
func (s *Server) degrade(j *job) {
	switch {
	case shedTo[j.solver] != "":
		j.shedFrom, j.solver = j.solver, shedTo[j.solver]
		j.degraded = true
	case j.solver == "robust":
		if j.req.MaxIterations == 0 || j.req.MaxIterations > s.cfg.DegradedIterations {
			j.req.MaxIterations = s.cfg.DegradedIterations
		}
		j.req.TimeBudgetMS = 0
		j.degraded = true
	default:
		return
	}
	s.degraded.Add(1)
	s.cfg.Trace.Count("serve.degraded", 1)
	s.cfg.Trace.Event("serve.degraded",
		obs.Str("from", firstNonEmpty(j.shedFrom, j.solver)), obs.Str("to", j.solver))
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// reject writes an admission-path error response (the worker never saw the
// request). 429 and 503 carry Retry-After, the explicit load-shed contract.
func (s *Server) reject(w http.ResponseWriter, status int, reason, msg, solver string) {
	resp := ErrorResponse{Error: msg, Reason: reason, Solver: solver}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		resp.RetryAfterMS = s.cfg.RetryAfter.Milliseconds()
		w.Header().Set("Retry-After", strconv.FormatInt(int64(s.cfg.RetryAfter.Seconds()+0.5), 10))
	}
	writeJSON(w, status, resp)
	s.cfg.Trace.Count("serve.status."+strconv.Itoa(status), 1)
}

// worker is one pool goroutine: it drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	defer s.exited.Add(1)
	for j := range s.queue {
		s.inflight.Add(1)
		s.dispatch(j)
		s.inflight.Add(-1)
		s.completed.Add(1)
		close(j.done)
	}
}

// dispatch solves one admitted job. It never panics (solver panics are
// contained) and always leaves a response on the job.
func (s *Server) dispatch(j *job) {
	// The request owns a lane, so the solve's spans nest under its
	// serve.request span however many requests run at once.
	tr := s.cfg.Trace.Root()
	outcome := "ok"
	sp := tr.Start("serve.request", obs.Str("solver", j.solver))
	defer func() { sp.End(obs.Str("outcome", outcome)) }()
	j.times.queue = time.Since(j.enqueued)
	tr.Observe("serve.queue_wait_us", float64(j.times.queue.Nanoseconds())/1e3)
	begin := time.Now()

	// The request budget: a child of the server root (so drain can cancel
	// every in-flight solve at once), clamped to MaxBudget, bridged from
	// the request context so a client disconnect cancels the solve, and
	// capped at the request's max_nodes.
	bud := s.requestBudget(j.req.TimeoutMS)
	defer bud.Cancel()
	stop := context.AfterFunc(j.ctx, bud.Cancel)
	defer stop()

	opts := j.req.options()
	opts.Budget = bud.WithNodes(int64(j.req.MaxNodes))
	opts.Faults = s.cfg.Faults
	opts.Trace = tr

	res, err := s.safeSolve(j, &solve.Request{Graph: j.req.graph, Arch: j.req.arch, Options: opts})
	j.times.solve = time.Since(begin)
	tr.Observe("serve.request_us", float64(j.times.solve.Nanoseconds())/1e3)
	if err != nil {
		outcome = s.fail(j, err)
		return
	}
	j.times.cache = res.CacheTime
	j.times.solve -= res.CacheTime
	begin = time.Now()
	resp, err := buildResponse(j.req, j.solver, j.shedFrom, j.degraded, res)
	j.times.encode = time.Since(begin)
	if err != nil {
		outcome = s.fail(j, err)
		return
	}
	j.status, j.body = http.StatusOK, resp
}

// requestBudget derives the per-request budget: min(request timeout,
// MaxBudget) on the server clock, as a child of the root so cancellation
// composes, with its own exhaustion note so every request that runs dry
// records its own budget.exhausted event. The caller owns the child and
// must Cancel it.
func (s *Server) requestBudget(timeoutMS int64) *budget.Budget {
	d := s.cfg.MaxBudget
	if t := time.Duration(timeoutMS) * time.Millisecond; t > 0 && t < d {
		d = t
	}
	return s.root.WithOwnNote().WithTimeout(d)
}

// errPanicked marks a contained solver panic.
type errPanicked struct{ val any }

func (e *errPanicked) Error() string { return fmt.Sprintf("solver panicked: %v", e.val) }

// safeSolve runs the solver with panic containment: a panicking solver is
// converted into an error (and a flight-recorder event), never a dead
// worker or daemon.
func (s *Server) safeSolve(j *job, req *solve.Request) (res *solve.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.cfg.Trace.Count("serve.panics", 1)
			s.cfg.Trace.Event("serve.panic",
				obs.Str("solver", j.solver), obs.Str("value", fmt.Sprint(p)))
			err = &errPanicked{val: p}
			res = nil
		}
	}()
	solver, err := solve.Get(j.solver)
	if err != nil {
		return nil, err
	}
	// The cache decorates the solver per request: exact repeats return the
	// stored result, near-misses warm-start the solve. Wrap is a no-op on a
	// nil cache, and uncacheable requests (armed faults, wall-clock search
	// budgets) pass through inside the decorator.
	return schedcache.Wrap(solver, s.cache).Solve(req)
}

// fail maps a dispatch error onto the wire: status, machine reason, and —
// for budget exhaustion — the all-software partial result. Returns the
// span outcome tag.
func (s *Server) fail(j *job, err error) (outcome string) {
	resp := ErrorResponse{Error: err.Error(), Solver: j.solver}
	var pe *errPanicked
	switch {
	case errors.Is(err, budget.ErrExhausted):
		j.status = http.StatusGatewayTimeout
		resp.Reason = budgetReason(err)
		resp.Partial = s.partialResult(j)
		outcome = "budget"
	case errors.Is(err, sched.ErrFloorplanInfeasible),
		errors.Is(err, sched.ErrNoSoftwareFallback):
		j.status = http.StatusUnprocessableEntity
		resp.Reason = "infeasible"
		outcome = "infeasible"
	case errors.As(err, &pe):
		j.status = http.StatusInternalServerError
		resp.Reason = "panic"
		outcome = "panic"
	default:
		j.status = http.StatusInternalServerError
		resp.Reason = "internal"
		outcome = "error"
	}
	j.body = resp
	return outcome
}

// budgetReason extracts the specific exhaustion reason from a budget error
// chain.
func budgetReason(err error) string {
	var be *budget.Error
	if errors.As(err, &be) {
		return be.Reason.String()
	}
	return "exhausted"
}

// partialResult builds the 504 partial-result body: the guaranteed
// all-software list schedule, which needs no search, no fabric and no
// budget — the serving tier's own bottom rung. Nil when even that is
// impossible (a graph violating §III's software-implementation assumption).
func (s *Server) partialResult(j *job) *SolveResponse {
	sch, err := sched.SoftwareOnlyScheduleFrom(j.req.graph, j.req.arch, nil)
	if err != nil {
		return nil
	}
	return &SolveResponse{
		Solver:   j.solver,
		Degraded: true,
		ShedFrom: firstNonEmpty(j.shedFrom, j.solver),
		Rung:     solve.SoftwareOnly.String(),
		Makespan: sch.Makespan,
	}
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, encodeBody(v))
}

// encodeBody returns the bytes json.Encoder.Encode writes for v: the
// JSON and a newline. The response types always encode, so an error
// leaves the body empty, as Encode did.
func encodeBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// writeBody writes an encoded JSON response. A write error means the
// client went away; the headers are gone, so there is nothing left to
// report.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// DrainReport summarises a drain.
type DrainReport struct {
	// Queued and InFlight count the work outstanding when the drain began.
	Queued   int
	InFlight int64
	// Forced reports that the drain budget expired and the remaining
	// in-flight solves were cancelled through the root budget (they still
	// produced 504 responses; nothing was dropped).
	Forced bool
}

// Drain executes the graceful-shutdown state machine: stop admitting
// (late requests are refused with 503), let queued and in-flight requests
// finish under DrainBudget, cancel stragglers through the root budget, and
// join every worker. Idempotent; concurrent callers block until the first
// drain completes.
func (s *Server) Drain() DrainReport {
	s.mu.Lock()
	if s.state != stateAccepting {
		s.mu.Unlock()
		<-s.stopped
		return DrainReport{}
	}
	s.state = stateDraining
	rep := DrainReport{Queued: len(s.queue), InFlight: s.inflight.Load()}
	// Closing under the lock is safe: admission enqueues under the same
	// lock and the accepting check above now fails, so no send can race
	// the close. Workers drain what is already queued, then exit.
	close(s.queue)
	s.mu.Unlock()

	tr := s.cfg.Trace
	tr.Event("serve.drain_begin",
		obs.Int("queued", int64(rep.Queued)), obs.Int("in_flight", rep.InFlight))
	dbud := budget.New(budget.Options{Timeout: s.cfg.DrainBudget, Clock: s.cfg.Clock})
	for s.exited.Load() < int64(s.cfg.Workers) {
		if !rep.Forced && dbud.Check() != nil {
			// Out of drain budget: trip every in-flight request budget.
			// Solvers poll their budgets (the budgetloop analyzer's
			// invariant), so each in-flight solve returns within
			// microseconds of search and answers 504.
			s.root.Cancel()
			rep.Forced = true
			tr.Event("serve.drain_forced", obs.Int("in_flight", s.inflight.Load()))
		}
		s.cfg.Sleep(drainPoll)
	}
	s.wg.Wait()

	s.mu.Lock()
	s.state = stateStopped
	s.mu.Unlock()
	tr.Event("serve.drain_end",
		obs.Int("completed", s.completed.Load()), obs.Bool("forced", rep.Forced))
	close(s.stopped)
	return rep
}

// Close drains the server; it exists so callers can `defer srv.Close()`.
func (s *Server) Close() error {
	s.Drain()
	return nil
}
