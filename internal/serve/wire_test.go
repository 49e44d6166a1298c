package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

// decodeRequestReference is decodeRequest as it was before the canonical
// reader: one encoding/json pass over the envelope, a second over the
// graph (readGraphReference). It keeps no check for trailing data.
func decodeRequestReference(body []byte, defaultArch string) (*SolveRequest, *taskgraph.Graph, *arch.Architecture, error) {
	var req SolveRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, nil, fmt.Errorf("decoding request: %w", err)
	}
	if req.Solver == "" {
		req.Solver = "robust"
	}
	if len(req.Graph) == 0 {
		return nil, nil, nil, fmt.Errorf("request has no graph")
	}
	g, err := readGraphReference(req.Graph)
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
	return &req, g, a, nil
}

// readGraphReference is taskgraph.Read as it was before the canonical
// reader: encoding/json only.
func readGraphReference(data []byte) (*taskgraph.Graph, error) {
	var g taskgraph.Graph
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return nil, fmt.Errorf("taskgraph: decoding: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("taskgraph: loaded graph invalid: %w", err)
	}
	return &g, nil
}

// trailingData reports whether body holds one JSON value followed by
// something other than whitespace.
func trailingData(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var v json.RawMessage
	if dec.Decode(&v) != nil {
		return false
	}
	return len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
}

// serveMixBody is a body shaped like the serve-mix workload's: a
// json.Marshal'd SolveRequest around a MarshalJSON graph.
func serveMixBody(tb testing.TB, tasks int, seed int64, solver string) []byte {
	tb.Helper()
	g, err := benchgen.Generate(benchgen.Config{Tasks: tasks, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		tb.Fatal(err)
	}
	req := SolveRequest{Solver: solver, Graph: raw, IncludeSchedule: true}
	if solver == "par" {
		req.MaxIterations, req.Seed = 8, 1
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// wireSeeds are the bodies FuzzWireDecode starts from and
// TestWireDecodeMatchesReference runs: canonical bodies, every way out of
// the canonical subset, and error bodies on both paths.
func wireSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	const g = `{"name":"g","tasks":[{"name":"a","impls":[{"name":"a_sw","kind":"SW","time":100},{"name":"a_hw","kind":"HW","time":10,"clb":100,"bram":1}]},{"name":"b","impls":[{"name":"b_sw","kind":"SW","time":200}]}],"edges":[[0,1]],"comm":[7]}`
	env := func(graph string, extra string) []byte {
		return []byte(`{"solver":"pa","graph":` + graph + extra + `}`)
	}
	seeds := [][]byte{
		serveMixBody(tb, 10, 1, "robust"),
		serveMixBody(tb, 35, 2, "pa"),
		serveMixBody(tb, 20, 3, "par"),
		env(g, ""),
		env(g, `,"arch":"zc706","module_reuse":true,"skip_floorplan":false,"seed":-4,"search_workers":2,"max_iterations":3,"time_budget_ms":0,"max_nodes":100,"timeout_ms":250,"include_schedule":true`),
		[]byte(" \n\t" + string(env(g, "")) + " \r\n"),
		[]byte("{ \"solver\" : \"pa\" ,\n \"graph\" : " + g + " }"),
		// Out of the subset: case-folded and duplicate keys, escapes,
		// non-ASCII, numbers encoding/json reads differently, null.
		env(g, `,"Solver":"is1"`),
		[]byte(`{"SOLVER":"pa","graph":` + g + `}`),
		env(g, `,"solver":"is1"`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"a_sw"`, `"a\u005fsw"`, 1) + `}`),
		[]byte(`{"solver":"p\u0061","graph":` + strings.Replace(g, `"name":"g"`, `"n\u0061me":"g"`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"a_sw"`, `"a\ud83d\ude00"`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"a_sw"`, `"aé"`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"a_sw"`, "\"a\xc3\xa9\"", 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"a_sw"`, "\"a\xff\"", 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"time":100`, `"time":1e2`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"time":100`, `"time":1.0`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"time":100`, `"time":-0`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"time":100`, `"time":99999999999999999999`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"time":100`, `"time":0100`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"comm":[7]`, `"comm":null`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"comm":[7]`, `"comm":[]`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `[[0,1]]`, `[[0,1,2]]`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `[[0,1]]`, `[[1,2,3]]`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `[[0,1]]`, `[[0]]`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"name":"g"`, `"name":"g","extra":1`, 1) + `}`),
		[]byte(`{"solver":"pa","graph":` + strings.Replace(g, `"kind":"SW"`, `"kind":"XX"`, 1) + `}`),
		[]byte(`{"solver":null,"graph":` + g + `}`),
		[]byte(`{"solver":"pa","graph":null}`),
		[]byte(`{"solver":"pa","graph":"x"}`),
		[]byte(`{"solver":"pa","graph":{}}`),
		[]byte(`{"solver":"pa","seed":1e2,"graph":` + g + `}`),
		[]byte(`{"solver":"pa","module_reuse":1,"graph":` + g + `}`),
		[]byte(`{"solver":"pa","arch":"nope","graph":` + g + `}`),
		[]byte(`{"solver":"pa"}`),
		[]byte(`{"solver":"pa","graph":{"tasks":"x"}}`),
		[]byte(`{"solver":"pa","graph":` + g + `,"bogus":1}`),
		// Trailing data, which the reference accepted.
		[]byte(string(env(g, "")) + ` {"solver":"exact"} trailing garbage`),
		[]byte(string(env(g, "")) + `x`),
		[]byte(string(env(g, "")) + `{}`),
		[]byte(``),
		[]byte(`{`),
		[]byte(`[]`),
	}
	for _, n := range []int{5, 12} {
		gr, err := benchgen.Generate(benchgen.Config{Tasks: n, Seed: int64(n)})
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gr.Write(&buf); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, []byte(`{"solver":"robust","graph":`+buf.String()+`}`))
	}
	return seeds
}

// checkWireDecode compares decodeRequest on body against the reference:
// the same request, graph, architecture and error, except that a body
// with data after its object must now be refused.
func checkWireDecode(t *testing.T, body []byte) {
	t.Helper()
	req, g, a, err := decodeRequest(body, "zedboard")
	wreq, wg, wa, werr := decodeRequestReference(body, "zedboard")
	if trailingData(body) {
		if err == nil {
			t.Fatalf("body with trailing data accepted: %q", body)
		}
		return
	}
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("error %v, reference %v\nbody %q", err, werr, body)
	}
	if !reflect.DeepEqual(req, wreq) {
		t.Fatalf("request %+v, reference %+v\nbody %q", req, wreq, body)
	}
	if !reflect.DeepEqual(g, wg) {
		t.Fatalf("graph differs from the reference\nbody %q", body)
	}
	if !reflect.DeepEqual(a, wa) {
		t.Fatalf("architecture differs from the reference\nbody %q", body)
	}
}

// FuzzWireDecode is the differential check of the canonical fast path:
// whatever the body, decodeRequest (fast path, or encoding/json when the
// fast path declines) returns what decodeRequestReference returns.
func FuzzWireDecode(f *testing.F) {
	for _, s := range wireSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkWireDecode(t, body)
	})
}

func TestWireDecodeMatchesReference(t *testing.T) {
	for _, s := range wireSeeds(t) {
		checkWireDecode(t, s)
	}
}

// TestCanonicalBodiesTakeTheFastPath: the bodies clients actually send
// (json.Marshal'd requests around MarshalJSON or Write graphs) never fall
// back to encoding/json, or the fast path would quietly cost nothing and
// save nothing.
func TestCanonicalBodiesTakeTheFastPath(t *testing.T) {
	for i, n := range []int{1, 10, 35, 60, 100} {
		for _, solver := range []string{"robust", "pa", "par"} {
			b := serveMixBody(t, n, int64(i+1), solver)
			if _, _, err := readCanonicalRequest(b); err != nil {
				t.Fatalf("%d tasks, %s: fast path answered %v", n, solver, err)
			}
		}
	}
	for _, s := range wireSeeds(t)[3:7] {
		if _, _, err := readCanonicalRequest(s); err == errNotCanonical {
			t.Fatalf("canonical seed declined: %q", s)
		}
	}
}

// TestTrailingDataRejected: a body with anything but whitespace after its
// object is a 400 on /solve and on the session endpoints; trailing
// whitespace stays legal.
func TestTrailingDataRejected(t *testing.T) {
	s := newServer(t, Config{})
	h := s.Handler()
	valid := body(t, map[string]any{"solver": "pa", "graph": graphJSON(t, 8, 1)})
	for _, tail := range []string{` {"solver":"exact"} trailing garbage`, `x`, `{}`, `]`} {
		var er ErrorResponse
		if code := postRec(t, h, append(append([]byte{}, valid...), tail...), &er); code != http.StatusBadRequest || er.Reason != "bad-request" {
			t.Errorf("/solve with trailing %q: status %d, reason %q", tail, code, er.Reason)
		}
	}
	for _, tail := range []string{"\n", " \r\n\t "} {
		if code := postRec(t, h, append(append([]byte{}, valid...), tail...), nil); code != http.StatusOK {
			t.Errorf("/solve with trailing whitespace %q: status %d", tail, code)
		}
	}

	open := body(t, map[string]any{"solver": "pa"})
	if code := postPath(t, h, "/session/open", append(open, ` {"solver":"exact"}`...), nil); code != http.StatusBadRequest {
		t.Errorf("/session/open with trailing data: status %d", code)
	}
	id := openSession(t, h, map[string]any{"solver": "pa"})
	submit := body(t, map[string]any{"session": id, "graph": graphJSON(t, 6, 2)})
	var er ErrorResponse
	if code := postPath(t, h, "/session/submit", append(append([]byte{}, submit...), " garbage"...), &er); code != http.StatusBadRequest || er.Reason != "bad-request" {
		t.Errorf("/session/submit with trailing data: status %d, reason %q", code, er.Reason)
	}
	if code := postPath(t, h, "/session/submit", append(submit, '\n'), nil); code != http.StatusOK {
		t.Errorf("/session/submit with a trailing newline: status %d", code)
	}
}

// referenceResponseBody is how /solve encoded a response before
// buildResponse went compact: the schedule indented by WriteJSON, then
// the whole response through json.Encoder, which compacts the
// RawMessage.
func referenceResponseBody(t *testing.T, req *SolveRequest, solver string, res *solve.Result) []byte {
	t.Helper()
	resp, err := buildResponse(req, solver, "", false, res)
	if err != nil {
		t.Fatal(err)
	}
	if req.IncludeSchedule && res.Schedule != nil {
		var buf bytes.Buffer
		if err := res.Schedule.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		resp.Schedule = json.RawMessage(buf.Bytes())
	}
	var out bytes.Buffer
	if err := json.NewEncoder(&out).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestResponseBodyByteIdentical: for a fixed request set, the compact
// response body equals the indented-then-compacted one byte for byte.
func TestResponseBodyByteIdentical(t *testing.T) {
	a := arch.ZedBoard()
	for i, tc := range []struct {
		tasks  int
		solver string
	}{{8, "pa"}, {20, "robust"}, {35, "pa"}, {12, "is1"}, {16, "par"}} {
		g, err := benchgen.Generate(benchgen.Config{Tasks: tc.tasks, Seed: int64(40 + i)})
		if err != nil {
			t.Fatal(err)
		}
		g.Name = `<&> "quoted" ` + g.Name // HTML escaping must agree too
		sv, err := solve.Get(tc.solver)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sv.Solve(&solve.Request{Graph: g, Arch: a,
			Options: solve.Options{Workers: 1, Seed: 1, MaxIterations: 4}})
		if err != nil {
			t.Fatal(err)
		}
		req := &SolveRequest{IncludeSchedule: true}
		resp, err := buildResponse(req, tc.solver, "", false, res)
		if err != nil {
			t.Fatal(err)
		}
		got := encodeBody(resp)
		if want := referenceResponseBody(t, req, tc.solver, res); !bytes.Equal(got, want) {
			t.Fatalf("%s on %d tasks: body differs\n got %s\nwant %s", tc.solver, tc.tasks, got, want)
		}
	}
}

// TestServerTimingHeader: a /solve response names the five stages with
// parseable, non-negative durations, over a real HTTP round trip, for a
// miss and for the hit that repeats it.
func TestServerTimingHeader(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	payload := body(t, map[string]any{"solver": "pa", "graph": graphJSON(t, 12, 3)})
	for _, want := range []string{"miss", "hit"} {
		resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		var sr SolveResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || sr.Cache != want {
			t.Fatalf("status %d, cache %q, err %v; want 200 %s", resp.StatusCode, sr.Cache, err, want)
		}
		stages := parseServerTiming(t, resp.Header.Get("Server-Timing"))
		var names []string
		for _, st := range stages {
			names = append(names, st.name)
		}
		if got := strings.Join(names, ","); got != "decode,queue,cache,solve,encode" {
			t.Fatalf("Server-Timing stages %q", got)
		}
		if stages[0].ms <= 0 || stages[2].ms <= 0 {
			t.Fatalf("decode and cache must take time: %+v", stages)
		}
	}
}

type timingStage struct {
	name string
	ms   float64
}

// parseServerTiming parses a Server-Timing value of "name;dur=ms" entries.
func parseServerTiming(t *testing.T, h string) []timingStage {
	t.Helper()
	var out []timingStage
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			t.Fatalf("Server-Timing entry %q has no dur", part)
		}
		ms, err := strconv.ParseFloat(dur, 64)
		if err != nil || ms < 0 {
			t.Fatalf("Server-Timing entry %q: bad duration", part)
		}
		out = append(out, timingStage{name, ms})
	}
	return out
}

// BenchmarkServeDecode prices the handler's decode of a 35-task
// serve-mix-shaped request, envelope and graph: the canonical fast path,
// and the encoding/json fallback it replaces on a body one case-folded
// key outside the subset.
func BenchmarkServeDecode(b *testing.B) {
	canonical := serveMixBody(b, 35, 1, "robust")
	fallback := bytes.Replace(canonical, []byte(`"solver"`), []byte(`"Solver"`), 1)
	for _, bc := range []struct {
		name string
		body []byte
	}{{"canonical", canonical}, {"fallback", fallback}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := decodeRequest(bc.body, "zedboard"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
