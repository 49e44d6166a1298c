package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/online"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

// Session mode exposes the rolling-horizon engine (internal/online) over
// HTTP: a session is one long-lived online.Engine, jobs stream in over
// /session/submit, every submit re-plans the tail from the committed prefix,
// and /session/close finalizes the stitched schedule. Unlike /solve — one
// stateless request per problem — a session accumulates platform state
// across requests, which is exactly what the commit-boundary model is for.
//
//	POST /session/open     create a session            (engine parameters)
//	POST /session/submit   submit a job and re-plan    (returns epoch stats)
//	POST /session/close    finalize and tear down      (returns the run)
//
// Sessions live outside the solve worker pool: each submit re-plans
// synchronously in its handler goroutine, serialized per session (the engine
// is not concurrency-safe), so a slow session never holds a solve worker.
// The engine's budget is the server root budget — a forced drain cancels
// in-flight session re-plans exactly like in-flight solves.

// session is one live rolling-horizon engine plus its serialization lock.
type session struct {
	mu     sync.Mutex
	eng    *online.Engine
	solver string
	arch   string
	jobs   int
}

// SessionOpenRequest is the JSON body of POST /session/open: the engine
// parameters shared by every epoch of the session.
type SessionOpenRequest struct {
	// Solver re-plans every epoch tail (default "pa"; failures degrade to
	// the robust ladder automatically).
	Solver string `json:"solver,omitempty"`
	// Arch names a board preset; empty means the server's default.
	Arch string `json:"arch,omitempty"`
	Seed int64  `json:"seed,omitempty"`
	// Workers is the in-solver parallelism (default 1 on the serving path,
	// as for /solve).
	Workers       int  `json:"workers,omitempty"`
	MaxIterations int  `json:"max_iterations,omitempty"`
	ModuleReuse   bool `json:"module_reuse,omitempty"`
	// DisablePrefetch retimes every epoch to the issue-at-dispatch
	// baseline (see online.Config).
	DisablePrefetch bool `json:"disable_prefetch,omitempty"`
	// EpochNodes caps each epoch re-plan at a node budget; 0 leaves epochs
	// on the server root budget only.
	EpochNodes int64 `json:"epoch_nodes,omitempty"`
	// PolishIterations enables the final PA-R polish pass on close.
	PolishIterations int `json:"polish_iterations,omitempty"`
}

// SessionOpenResponse answers /session/open.
type SessionOpenResponse struct {
	Session string `json:"session"`
	Solver  string `json:"solver"`
	Arch    string `json:"arch"`
}

// SessionSubmitRequest is the JSON body of POST /session/submit: one
// arriving job.
type SessionSubmitRequest struct {
	Session string `json:"session"`
	// Name labels the job in the merged schedule (default "jobN").
	Name string `json:"name,omitempty"`
	// Graph is the job's task graph in the taskgraph JSON schema.
	Graph json.RawMessage `json:"graph"`
	// Arrival is the job's logical arrival instant on the session
	// timeline; instants before the current commit boundary are clamped to
	// it (the platform cannot learn about work in its own past).
	Arrival int64 `json:"arrival,omitempty"`
	// Deadline, when positive, scores the job on close.
	Deadline int64 `json:"deadline,omitempty"`
}

// EpochSummary is the wire view of one online.EpochStats record.
// ReplanTime is deliberately absent: it is wall-clock measurement, and the
// wire contract only carries the deterministic fields.
type EpochSummary struct {
	Commit         int64 `json:"commit"`
	NewJobs        int   `json:"new_jobs"`
	FrozenTasks    int   `json:"frozen_tasks"`
	TailTasks      int   `json:"tail_tasks"`
	Degraded       bool  `json:"degraded,omitempty"`
	Makespan       int64 `json:"makespan"`
	PrefetchIssued int   `json:"prefetch_issued"`
	PrefetchHits   int   `json:"prefetch_hits"`
	PrefetchMisses int   `json:"prefetch_misses"`
	Stall          int64 `json:"stall"`
	StallHidden    int64 `json:"stall_hidden"`
}

// SessionSubmitResponse answers /session/submit with the state of the plan
// after the re-plan the submission triggered.
type SessionSubmitResponse struct {
	Session  string `json:"session"`
	Jobs     int    `json:"jobs"`
	Epochs   int    `json:"epochs"`
	Commit   int64  `json:"commit"`
	Makespan int64  `json:"makespan"`
	// LastEpoch is the epoch this submission triggered (nil when the
	// engine coalesced it into a later boundary).
	LastEpoch *EpochSummary `json:"last_epoch,omitempty"`
}

// SessionCloseRequest is the JSON body of POST /session/close.
type SessionCloseRequest struct {
	Session string `json:"session"`
	// IncludeSchedule asks for the stitched schedule JSON in the response.
	IncludeSchedule bool `json:"include_schedule,omitempty"`
}

// SessionCloseResponse is the finalized run: the online.Result summary.
type SessionCloseResponse struct {
	Session         string          `json:"session"`
	Epochs          []EpochSummary  `json:"epochs"`
	Makespan        int64           `json:"makespan"`
	JobEnds         []int64         `json:"job_ends,omitempty"`
	MissedDeadlines []int           `json:"missed_deadlines,omitempty"`
	LateArrivals    int             `json:"late_arrivals,omitempty"`
	PolishImproved  bool            `json:"polish_improved,omitempty"`
	Schedule        json.RawMessage `json:"schedule,omitempty"`
}

func epochSummary(st online.EpochStats) EpochSummary {
	return EpochSummary{
		Commit:         st.Commit,
		NewJobs:        st.NewJobs,
		FrozenTasks:    st.FrozenTasks,
		TailTasks:      st.TailTasks,
		Degraded:       st.Degraded,
		Makespan:       st.Makespan,
		PrefetchIssued: st.PrefetchIssued,
		PrefetchHits:   st.PrefetchHits,
		PrefetchMisses: st.PrefetchMisses,
		Stall:          st.Stall,
		StallHidden:    st.StallHidden,
	}
}

// handleSessionOpen creates a session: a rolling-horizon engine bound to the
// server root budget, serialized by its own lock.
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var req SessionOpenRequest
	if !s.decodeSessionBody(w, r, &req) {
		return
	}
	if req.Solver == "" {
		req.Solver = "pa"
	}
	if _, err := solve.Get(req.Solver); err != nil {
		s.reject(w, http.StatusBadRequest, "bad-request", err.Error(), req.Solver)
		return
	}
	name := req.Arch
	if name == "" {
		name = s.cfg.DefaultArch
	}
	a, err := arch.Preset(name)
	if err != nil {
		s.reject(w, http.StatusBadRequest, "bad-request", err.Error(), req.Solver)
		return
	}
	workers := req.Workers
	if workers == 0 {
		workers = 1
	}
	eng, err := online.New(online.Config{
		Arch:             a,
		Solver:           req.Solver,
		Workers:          workers,
		Seed:             req.Seed,
		MaxIterations:    req.MaxIterations,
		ModuleReuse:      req.ModuleReuse,
		DisablePrefetch:  req.DisablePrefetch,
		EpochNodes:       req.EpochNodes,
		PolishIterations: req.PolishIterations,
		Budget:           s.root,
		Faults:           s.cfg.Faults,
		// One lane per session: its epochs nest their solves and never
		// another session's or request's spans.
		Trace: s.cfg.Trace.Root(),
	})
	if err != nil {
		s.reject(w, http.StatusBadRequest, "bad-request", err.Error(), req.Solver)
		return
	}

	s.mu.Lock()
	accepting := s.state == stateAccepting
	s.mu.Unlock()
	if !accepting {
		s.reject(w, http.StatusServiceUnavailable, "draining", "request not admitted: draining", req.Solver)
		return
	}
	s.sessMu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.sessMu.Unlock()
		s.reject(w, http.StatusTooManyRequests, "session-limit",
			fmt.Sprintf("request not admitted: %d sessions already open", s.cfg.MaxSessions), req.Solver)
		return
	}
	s.sessSeq++
	id := fmt.Sprintf("s%d", s.sessSeq)
	s.sessions[id] = &session{eng: eng, solver: req.Solver, arch: name}
	s.sessMu.Unlock()

	s.cfg.Trace.Count("serve.session.open", 1)
	writeJSON(w, http.StatusOK, SessionOpenResponse{Session: id, Solver: req.Solver, Arch: name})
}

// handleSessionSubmit admits one job into a session and re-plans
// synchronously: the response carries the epoch the submission triggered.
func (s *Server) handleSessionSubmit(w http.ResponseWriter, r *http.Request) {
	var req SessionSubmitRequest
	if !s.decodeSessionBody(w, r, &req) {
		return
	}
	sess, ok := s.lookupSession(w, req.Session)
	if !ok {
		return
	}
	if len(req.Graph) == 0 {
		s.reject(w, http.StatusBadRequest, "bad-request", "request has no graph", sess.solver)
		return
	}
	g, err := taskgraph.Decode(req.Graph)
	if err != nil {
		s.reject(w, http.StatusBadRequest, "bad-request", err.Error(), sess.solver)
		return
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	name := req.Name
	if name == "" {
		name = fmt.Sprintf("job%d", sess.jobs)
	}
	job := online.Job{Name: name, Graph: g, Arrival: req.Arrival, Deadline: req.Deadline}
	before := len(sess.eng.Epochs())
	if err := sess.eng.Submit(job); err != nil {
		s.reject(w, http.StatusBadRequest, "bad-request", err.Error(), sess.solver)
		return
	}
	sess.jobs++
	if err := sess.eng.Run(); err != nil {
		s.sessionFail(w, sess, err)
		return
	}
	epochs := sess.eng.Epochs()
	resp := SessionSubmitResponse{
		Session: req.Session,
		Jobs:    sess.jobs,
		Epochs:  len(epochs),
		Commit:  sess.eng.Commit(),
	}
	if plan := sess.eng.Plan(); plan != nil {
		resp.Makespan = plan.Makespan
	}
	if len(epochs) > before {
		es := epochSummary(epochs[len(epochs)-1])
		resp.LastEpoch = &es
	}
	s.cfg.Trace.Count("serve.session.submit", 1)
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionClose finalizes a session (draining anything still pending,
// polishing when configured) and removes it.
func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	var req SessionCloseRequest
	if !s.decodeSessionBody(w, r, &req) {
		return
	}
	s.sessMu.Lock()
	sess := s.sessions[req.Session]
	delete(s.sessions, req.Session)
	s.sessMu.Unlock()
	if sess == nil {
		s.reject(w, http.StatusNotFound, "no-session", "unknown session "+req.Session, "")
		return
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	res, err := sess.eng.Finalize()
	if err != nil {
		s.sessionFail(w, sess, err)
		return
	}
	resp := SessionCloseResponse{
		Session:         req.Session,
		Epochs:          make([]EpochSummary, 0, len(res.Epochs)),
		JobEnds:         res.JobEnds,
		MissedDeadlines: res.MissedDeadlines,
		LateArrivals:    res.LateArrivals,
		PolishImproved:  res.PolishImproved,
	}
	for _, st := range res.Epochs {
		resp.Epochs = append(resp.Epochs, epochSummary(st))
	}
	if res.Schedule != nil {
		resp.Makespan = res.Schedule.Makespan
		if req.IncludeSchedule {
			sch, err := res.Schedule.CompactJSON()
			if err != nil {
				s.reject(w, http.StatusInternalServerError, "internal", err.Error(), sess.solver)
				return
			}
			resp.Schedule = sch
		}
	}
	s.cfg.Trace.Count("serve.session.close", 1)
	writeJSON(w, http.StatusOK, resp)
}

// decodeSessionBody is the shared session-endpoint prologue: POST only,
// bounded body, strict JSON: one object of known fields and nothing after
// it but whitespace.
func (s *Server) decodeSessionBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.reject(w, http.StatusBadRequest, "bad-request", fmt.Sprintf("decoding request: %v", err), "")
		return false
	}
	if err := decodeStrict(body, v); err != nil {
		s.reject(w, http.StatusBadRequest, "bad-request", err.Error(), "")
		return false
	}
	return true
}

// lookupSession resolves a session ID, writing the 404 itself on a miss.
func (s *Server) lookupSession(w http.ResponseWriter, id string) (*session, bool) {
	s.sessMu.Lock()
	sess := s.sessions[id]
	s.sessMu.Unlock()
	if sess == nil {
		s.reject(w, http.StatusNotFound, "no-session", "unknown session "+id, "")
		return nil, false
	}
	return sess, true
}

// sessionFail maps an engine error onto the wire: budget exhaustion (the
// root budget tripping during a drain, or an epoch node cap) is 504 like a
// solve timeout, anything else is internal.
func (s *Server) sessionFail(w http.ResponseWriter, sess *session, err error) {
	status, reason := http.StatusInternalServerError, "internal"
	if errors.Is(err, budget.ErrExhausted) {
		status, reason = http.StatusGatewayTimeout, budgetReason(err)
	}
	s.reject(w, status, reason, err.Error(), sess.solver)
}

// sessionCount is the /healthz view.
func (s *Server) sessionCount() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}
