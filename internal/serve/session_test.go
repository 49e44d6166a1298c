package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"resched/internal/arch"
	"resched/internal/obs"
	"resched/internal/online"
	"resched/internal/taskgraph"
)

// postPath drives the handler at an arbitrary path with a recorder.
func postPath(t *testing.T, h http.Handler, path string, payload []byte, out any) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", rec.Body.String(), err)
		}
	}
	return rec.Code
}

// openSession opens a session and returns its ID.
func openSession(t *testing.T, h http.Handler, req map[string]any) string {
	t.Helper()
	var resp SessionOpenResponse
	if code := postPath(t, h, "/session/open", body(t, req), &resp); code != http.StatusOK {
		t.Fatalf("open status %d", code)
	}
	if resp.Session == "" {
		t.Fatal("open returned no session ID")
	}
	return resp.Session
}

func TestSessionLifecycle(t *testing.T) {
	s := newServer(t, Config{})
	h := s.Handler()
	id := openSession(t, h, map[string]any{"solver": "pa", "seed": int64(3)})

	// Three jobs streaming in at increasing arrivals: every submit re-plans
	// and reports the plan state.
	var lastMakespan int64
	for i, arrival := range []int64{0, 400, 900} {
		var resp SessionSubmitResponse
		code := postPath(t, h, "/session/submit", body(t, map[string]any{
			"session": id, "graph": graphJSON(t, 8, int64(10+i)), "arrival": arrival,
		}), &resp)
		if code != http.StatusOK {
			t.Fatalf("submit %d status %d", i, code)
		}
		if resp.Jobs != i+1 {
			t.Fatalf("submit %d: jobs = %d", i, resp.Jobs)
		}
		if resp.Epochs == 0 || resp.LastEpoch == nil {
			t.Fatalf("submit %d triggered no epoch: %+v", i, resp)
		}
		if resp.Makespan <= 0 {
			t.Fatalf("submit %d: makespan %d", i, resp.Makespan)
		}
		if resp.Commit > resp.LastEpoch.Commit {
			t.Fatalf("submit %d: commit %d behind epoch boundary %d", i, resp.Commit, resp.LastEpoch.Commit)
		}
		lastMakespan = resp.Makespan
	}

	var closed SessionCloseResponse
	code := postPath(t, h, "/session/close", body(t, map[string]any{
		"session": id, "include_schedule": true,
	}), &closed)
	if code != http.StatusOK {
		t.Fatalf("close status %d", code)
	}
	if closed.Makespan != lastMakespan {
		t.Fatalf("close makespan %d, last submit reported %d", closed.Makespan, lastMakespan)
	}
	if len(closed.Epochs) == 0 || len(closed.JobEnds) != 3 {
		t.Fatalf("close summary: %d epochs, %d job ends", len(closed.Epochs), len(closed.JobEnds))
	}
	// The stitched schedule comes back as a JSON document (the engine
	// already validated it with schedule.Check before committing it).
	var schDoc map[string]any
	if err := json.Unmarshal(closed.Schedule, &schDoc); err != nil || len(schDoc) == 0 {
		t.Fatalf("close schedule not a JSON document: %v", err)
	}

	// The session is gone: submit and close now 404.
	if code := postPath(t, h, "/session/submit", body(t, map[string]any{
		"session": id, "graph": graphJSON(t, 6, 1),
	}), nil); code != http.StatusNotFound {
		t.Fatalf("submit after close: status %d", code)
	}
	if code := postPath(t, h, "/session/close", body(t, map[string]any{"session": id}), nil); code != http.StatusNotFound {
		t.Fatalf("double close: status %d", code)
	}
}

func TestSessionBadRequests(t *testing.T) {
	s := newServer(t, Config{})
	h := s.Handler()

	cases := []struct {
		name, path string
		payload    []byte
		want       int
	}{
		{"unknown solver", "/session/open", body(t, map[string]any{"solver": "nope"}), http.StatusBadRequest},
		{"unknown arch", "/session/open", body(t, map[string]any{"arch": "nope"}), http.StatusBadRequest},
		{"unknown session", "/session/submit", body(t, map[string]any{"session": "zz", "graph": graphJSON(t, 6, 1)}), http.StatusNotFound},
		{"no graph", "/session/submit", nil, http.StatusNotFound}, // empty session resolves first
		{"bad json", "/session/open", []byte("{"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if tc.payload == nil {
			tc.payload = body(t, map[string]any{"session": "zz"})
		}
		if code := postPath(t, h, tc.path, tc.payload, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}

	// GET is not a session verb.
	req := httptest.NewRequest(http.MethodGet, "/session/open", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /session/open: status %d", rec.Code)
	}

	// A job with no graph on a live session is a 400.
	id := openSession(t, h, map[string]any{})
	if code := postPath(t, h, "/session/submit", body(t, map[string]any{"session": id}), nil); code != http.StatusBadRequest {
		t.Fatalf("graphless submit: status %d", code)
	}
	// A malformed graph too (a task with no implementations violates the
	// §III software-implementation assumption).
	if code := postPath(t, h, "/session/submit", body(t, map[string]any{
		"session": id, "graph": json.RawMessage(`{"name":"x","tasks":[{"name":"t"}]}`),
	}), nil); code != http.StatusBadRequest {
		t.Fatalf("malformed graph submit: status %d", code)
	}
}

func TestSessionLimitAndHealth(t *testing.T) {
	tr := obs.New()
	s := newServer(t, Config{MaxSessions: 2, Trace: tr})
	h := s.Handler()

	openSession(t, h, map[string]any{})
	id2 := openSession(t, h, map[string]any{})
	if code := postPath(t, h, "/session/open", body(t, map[string]any{}), nil); code != http.StatusTooManyRequests {
		t.Fatalf("third open: status %d", code)
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var health Health
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Sessions != 2 {
		t.Fatalf("healthz sessions = %d, want 2", health.Sessions)
	}

	// Closing one frees a slot.
	if code := postPath(t, h, "/session/close", body(t, map[string]any{"session": id2}), nil); code != http.StatusOK {
		t.Fatalf("close status %d", code)
	}
	openSession(t, h, map[string]any{})

	if got := tr.Snapshot().Counters["serve.session.open"]; got != 3 {
		t.Fatalf("serve.session.open = %d, want 3", got)
	}
}

func TestSessionMetricsFlow(t *testing.T) {
	tr := obs.New()
	s := newServer(t, Config{Trace: tr})
	h := s.Handler()
	id := openSession(t, h, map[string]any{"seed": int64(5)})
	for i := 0; i < 2; i++ {
		if code := postPath(t, h, "/session/submit", body(t, map[string]any{
			"session": id, "graph": graphJSON(t, 8, int64(20+i)), "arrival": int64(i * 500),
		}), nil); code != http.StatusOK {
			t.Fatalf("submit %d failed", i)
		}
	}
	if code := postPath(t, h, "/session/close", body(t, map[string]any{"session": id}), nil); code != http.StatusOK {
		t.Fatal("close failed")
	}
	snap := tr.Snapshot()
	// The engine's own taxonomy flows through the server trace: the online
	// counters the smoke gate requires are visible on /metrics.
	if snap.Counters["online.epochs"] == 0 {
		t.Fatal("online.epochs never counted through the session path")
	}
	if snap.Counters["serve.session.submit"] != 2 || snap.Counters["serve.session.close"] != 1 {
		t.Fatalf("session counters off: %+v", snap.Counters)
	}
}

func TestSessionRefusedWhileDraining(t *testing.T) {
	s := newServer(t, Config{})
	h := s.Handler()
	s.Drain()
	if code := postPath(t, h, "/session/open", body(t, map[string]any{}), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("open while drained: status %d", code)
	}
}

// TestSessionMatchesDirectEngine pins the wire path to the library: the
// session submits must produce the same stitched makespan as driving
// online.Engine directly with the same jobs.
func TestSessionMatchesDirectEngine(t *testing.T) {
	s := newServer(t, Config{})
	h := s.Handler()
	id := openSession(t, h, map[string]any{"solver": "pa", "seed": int64(11)})

	arrivals := []int64{0, 300}
	var last SessionSubmitResponse
	for i, at := range arrivals {
		if code := postPath(t, h, "/session/submit", body(t, map[string]any{
			"session": id, "name": "j", "graph": graphJSON(t, 8, int64(40+i)), "arrival": at,
		}), &last); code != http.StatusOK {
			t.Fatalf("submit %d failed", i)
		}
	}

	a, err := arch.Preset("zedboard")
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the session defaults: pa, one worker, default iterations.
	eng, err := online.New(online.Config{Arch: a, Solver: "pa", Workers: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range arrivals {
		g, err := taskgraph.Read(bytes.NewReader(graphJSON(t, 8, int64(40+i))))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Submit(online.Job{Name: "j", Graph: g, Arrival: at}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if plan := eng.Plan(); plan == nil || plan.Makespan != last.Makespan {
		t.Fatalf("wire makespan %d, direct engine %v", last.Makespan, plan)
	}
}

// TestTraceLanesPerRequestAndSession runs sessions and /solve requests
// concurrently on one server trace and checks the span ancestry: every
// request's solve nests under its own serve.request, every session's solve
// under its epoch, and requests and epochs are roots that never nest in one
// another.
func TestTraceLanesPerRequestAndSession(t *testing.T) {
	tr := obs.New()
	s := newServer(t, Config{Trace: tr})
	h := s.Handler()

	const sessions, submits, requests = 3, 2, 4
	type call struct {
		path    string
		payload []byte
	}
	var calls [][]call // one sequence per goroutine
	for i := 0; i < sessions; i++ {
		id := openSession(t, h, map[string]any{"solver": "pa", "seed": int64(i)})
		var seq []call
		for j := 0; j < submits; j++ {
			seq = append(seq, call{"/session/submit", body(t, map[string]any{
				"session": id, "graph": graphJSON(t, 8, int64(60+10*i+j)), "arrival": int64(j * 400),
			})})
		}
		calls = append(calls, seq)
	}
	for i := 0; i < requests; i++ {
		calls = append(calls, []call{{"/solve", body(t, map[string]any{
			"solver": "is1", "graph": graphJSON(t, 10, int64(90+i)),
		})}})
	}

	codes := make(chan int, sessions*submits+requests)
	var wg sync.WaitGroup
	for _, seq := range calls {
		wg.Add(1)
		go func(seq []call) {
			defer wg.Done()
			for _, c := range seq {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.payload)))
				codes <- rec.Code
			}
		}(seq)
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("call answered %d", code)
		}
	}

	spans := tr.Snapshot().Spans
	parentName := func(sp obs.SpanInfo) string {
		if sp.Parent < 0 {
			return "(root)"
		}
		return spans[sp.Parent].Name
	}
	count := map[string]int{}
	for i, sp := range spans {
		count[sp.Name]++
		want := ""
		switch sp.Name {
		case "serve.request", "online.epoch":
			want = "(root)"
		case "solve.is1":
			want = "serve.request"
		case "solve.pa":
			want = "online.epoch"
		default:
			continue
		}
		if got := parentName(sp); got != want {
			t.Errorf("span %d %s nests under %s, want %s", i, sp.Name, got, want)
		}
	}
	if count["serve.request"] != requests || count["solve.is1"] != requests {
		t.Errorf("requests traced %d serve.request and %d solve.is1 spans, want %d each",
			count["serve.request"], count["solve.is1"], requests)
	}
	if count["online.epoch"] < sessions*submits || count["solve.pa"] != count["online.epoch"] {
		t.Errorf("sessions traced %d online.epoch and %d solve.pa spans, want %d or more, one solve each",
			count["online.epoch"], count["solve.pa"], sessions*submits)
	}
}
