package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"resched/internal/arch"
	"resched/internal/canonjson"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

// SolveRequest is the JSON body of POST /solve: one scheduling problem
// instance plus the subset of solve.Options that makes sense over the wire.
// The architecture travels by preset name (arch.PresetNames) rather than by
// value: the daemon owns its hardware model, clients only pick one.
type SolveRequest struct {
	// Solver is a registered solver name (solve.List); empty means "robust",
	// the rung ladder — the right default for a service that must degrade
	// rather than fail.
	Solver string `json:"solver,omitempty"`
	// Arch names a board preset ("zedboard", "microzed", "zc706"); empty
	// means the server's default.
	Arch string `json:"arch,omitempty"`
	// Graph is the task graph in the taskgraph JSON schema.
	Graph json.RawMessage `json:"graph"`

	ModuleReuse   bool  `json:"module_reuse,omitempty"`
	SkipFloorplan bool  `json:"skip_floorplan,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
	// SearchWorkers is PA-R's in-solver parallelism. It defaults to 1 on
	// the serving path — the pool parallelises across requests, and a
	// single request must not commandeer every core.
	SearchWorkers int `json:"search_workers,omitempty"`
	MaxIterations int `json:"max_iterations,omitempty"`
	// TimeBudgetMS is PA-R's wall-clock search budget in milliseconds.
	TimeBudgetMS int64 `json:"time_budget_ms,omitempty"`
	// MaxNodes caps the search nodes of the whole solve, whatever the
	// solver, as pasched -maxnodes does; 0 means no node cap. A solve that
	// reaches it answers like one that runs out of time.
	MaxNodes int `json:"max_nodes,omitempty"`
	// TimeoutMS is the per-request budget in milliseconds, clamped by the
	// server's MaxBudget; 0 means "the server's MaxBudget".
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IncludeSchedule asks for the full schedule JSON in the response;
	// by default only the summary fields come back.
	IncludeSchedule bool `json:"include_schedule,omitempty"`

	// Decoded instance, populated by decodeRequest so the worker never
	// re-parses the body. Not part of the wire schema.
	graph *taskgraph.Graph
	arch  *arch.Architecture
}

// SolveResponse is the JSON body of a successful solve (HTTP 200), and —
// as the Partial field of ErrorResponse — of the degraded fallback a 504
// carries.
type SolveResponse struct {
	// Solver is the solver that actually ran; when the admission
	// controller shed the request to a cheaper rung this differs from the
	// requested one, Degraded is set and ShedFrom names the original.
	Solver   string `json:"solver"`
	Degraded bool   `json:"degraded,omitempty"`
	ShedFrom string `json:"shed_from,omitempty"`
	// Rung is the degradation-ladder rung that produced the schedule
	// (robust solver only).
	Rung string `json:"rung,omitempty"`

	// Cache reports how the server's schedule cache participated: "hit"
	// (stored result, no solver run), "warm" (a cached neighbor warm-started
	// the solve) or "miss". Omitted when the cache is disabled or the
	// request bypassed it, so pre-cache clients see unchanged bodies.
	Cache string `json:"cache,omitempty"`

	Makespan     int64 `json:"makespan"`
	SchedulingUS int64 `json:"scheduling_us"`
	FloorplanUS  int64 `json:"floorplan_us"`
	Retries      int   `json:"retries"`
	Iterations   int   `json:"iterations"`

	// Schedule is the full schedule JSON when the request asked for it.
	Schedule json.RawMessage `json:"schedule,omitempty"`
}

// ErrorResponse is the JSON body of every non-200 response.
type ErrorResponse struct {
	// Error is the human-readable failure.
	Error string `json:"error"`
	// Reason classifies it for machines: "queue-full", "draining",
	// "deadline passed", "cancelled", "node cap reached", "infeasible",
	// "panic", "bad-request".
	Reason string `json:"reason"`
	// Solver is the solver that was (or would have been) dispatched.
	Solver string `json:"solver,omitempty"`
	// RetryAfterMS mirrors the Retry-After header on 429/503 responses.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Partial carries the guaranteed all-software fallback schedule on a
	// 504: the requested solve did not finish inside its budget, but the
	// client still gets a valid (if conservative) schedule to run, the
	// same bottom rung the robust ladder degrades to.
	Partial *SolveResponse `json:"partial,omitempty"`
}

// decodeRequest parses and validates a wire request into a dispatchable
// instance. The graph is validated on decode (taskgraph.Decode), so workers
// never see a malformed instance. A body in the canonical subset of JSON
// (the form json.Marshal gives a SolveRequest) is read in one pass by
// readCanonicalRequest; any other body takes the encoding/json path, with
// the same result and the same error.
func decodeRequest(body []byte, defaultArch string) (*SolveRequest, *taskgraph.Graph, *arch.Architecture, error) {
	req, g, err := readCanonicalRequest(body)
	if errors.Is(err, errNotCanonical) {
		req, g, err = decodeRequestJSON(body)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	name := req.Arch
	if name == "" {
		name = defaultArch
	}
	a, err := arch.Preset(name)
	if err != nil {
		return nil, nil, nil, err
	}
	return req, g, a, nil
}

// decodeRequestJSON is the encoding/json path of decodeRequest.
func decodeRequestJSON(body []byte) (*SolveRequest, *taskgraph.Graph, error) {
	var req SolveRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, nil, err
	}
	if req.Solver == "" {
		req.Solver = "robust"
	}
	if len(req.Graph) == 0 {
		return nil, nil, fmt.Errorf("request has no graph")
	}
	g, err := taskgraph.Decode(req.Graph)
	if err != nil {
		return nil, nil, err
	}
	return &req, g, nil
}

// decodeStrict decodes a request body that must be exactly one JSON object
// of known fields, optionally followed by whitespace.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return errTrailingData
	}
	return nil
}

var (
	errTrailingData = errors.New("decoding request: unexpected data after the request object")
	// errNotCanonical is readCanonicalRequest's "not mine"; it never
	// reaches a client.
	errNotCanonical = errors.New("request body is not canonical JSON")
)

// readCanonicalRequest reads a /solve body in the canonical subset (see
// internal/canonjson): the envelope and the graph in one pass, with no
// RawMessage copy and no second scan. It returns errNotCanonical when the
// body falls outside the subset; the caller then runs decodeRequestJSON,
// whose answer on a canonical body this one equals (FuzzWireDecode checks
// it).
func readCanonicalRequest(body []byte) (req *SolveRequest, g *taskgraph.Graph, err error) {
	req = new(SolveRequest)
	r := canonjson.NewReader(body)
	var seen uint64
	hasGraph := false
	for more := r.Open('{'); more; more = r.Next('{') {
		switch string(r.Key()) {
		case "solver":
			r.Once(&seen, 0)
			req.Solver = r.Str()
		case "arch":
			r.Once(&seen, 1)
			req.Arch = r.Str()
		case "graph":
			r.Once(&seen, 2)
			start := r.Offset()
			g, err = taskgraph.ReadCanonical(r)
			req.Graph = json.RawMessage(body[start:r.Offset()])
			hasGraph = true
		case "module_reuse":
			r.Once(&seen, 3)
			req.ModuleReuse = r.Bool()
		case "skip_floorplan":
			r.Once(&seen, 4)
			req.SkipFloorplan = r.Bool()
		case "seed":
			r.Once(&seen, 5)
			req.Seed = r.Int64()
		case "search_workers":
			r.Once(&seen, 6)
			req.SearchWorkers = r.Int()
		case "max_iterations":
			r.Once(&seen, 7)
			req.MaxIterations = r.Int()
		case "time_budget_ms":
			r.Once(&seen, 8)
			req.TimeBudgetMS = r.Int64()
		case "max_nodes":
			r.Once(&seen, 9)
			req.MaxNodes = r.Int()
		case "timeout_ms":
			r.Once(&seen, 10)
			req.TimeoutMS = r.Int64()
		case "include_schedule":
			r.Once(&seen, 11)
			req.IncludeSchedule = r.Bool()
		default:
			r.Decline()
		}
	}
	if !r.Done() {
		return nil, nil, errNotCanonical
	}
	if req.Solver == "" {
		req.Solver = "robust"
	}
	if !hasGraph {
		return nil, nil, fmt.Errorf("request has no graph")
	}
	if err != nil {
		return nil, nil, err
	}
	return req, g, nil
}

// options assembles the solver options for a request. Budget (with the
// request's MaxNodes), Faults and Trace are owned by the dispatch layer and
// wired there.
func (r *SolveRequest) options() solve.Options {
	workers := r.SearchWorkers
	if workers == 0 {
		workers = 1
	}
	return solve.Options{
		ModuleReuse:   r.ModuleReuse,
		SkipFloorplan: r.SkipFloorplan,
		Seed:          r.Seed,
		Workers:       workers,
		TimeBudget:    time.Duration(r.TimeBudgetMS) * time.Millisecond,
		MaxIterations: r.MaxIterations,
	}
}

// buildResponse normalizes a solve.Result onto the wire. degraded is the
// admission controller's verdict: it covers both a solver swap (shedFrom
// non-empty) and an in-place budget clamp (robust under pressure).
func buildResponse(req *SolveRequest, ranSolver, shedFrom string, degraded bool, res *solve.Result) (*SolveResponse, error) {
	resp := &SolveResponse{
		Solver:       ranSolver,
		Degraded:     degraded,
		ShedFrom:     shedFrom,
		Cache:        res.Cache,
		Makespan:     res.Makespan,
		SchedulingUS: res.SchedulingTime.Microseconds(),
		FloorplanUS:  res.FloorplanTime.Microseconds(),
		Retries:      res.Retries,
		Iterations:   res.Iterations,
	}
	if res.Ladder != nil {
		resp.Rung = res.Ladder.Rung.String()
	}
	if req.IncludeSchedule && res.Schedule != nil {
		// Compact: encoding/json compacts a RawMessage on output, so an
		// indented schedule would reach the wire byte-identical anyway.
		sch, err := res.Schedule.CompactJSON()
		if err != nil {
			return nil, err
		}
		resp.Schedule = sch
	}
	return resp, nil
}
