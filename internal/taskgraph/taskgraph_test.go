package taskgraph

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"resched/internal/canonjson"
	"resched/internal/resources"
)

func swImpl(name string, t int64) Implementation {
	return Implementation{Name: name, Kind: SW, Time: t}
}

func hwImpl(name string, t int64, clb, bram, dsp int) Implementation {
	return Implementation{Name: name, Kind: HW, Time: t, Res: resources.Vec(clb, bram, dsp)}
}

// diamond builds the classic 4-task diamond a→{b,c}→d.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	for _, n := range []string{"a", "b", "c", "d"} {
		g.AddTask(n, swImpl(n+"_sw", 100), hwImpl(n+"_hw", 10, 50, 1, 2))
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 2, 3)
	if err := g.Validate(); err != nil {
		t.Fatalf("diamond invalid: %v", err)
	}
	return g
}

func TestAddTaskAssignsIDs(t *testing.T) {
	g := New("g")
	for i := 0; i < 5; i++ {
		task := g.AddTask("t", swImpl("s", 1))
		if task.ID != i {
			t.Errorf("task %d got ID %d", i, task.ID)
		}
	}
	if g.N() != 5 {
		t.Errorf("N() = %d, want 5", g.N())
	}
}

func TestAddEdge(t *testing.T) {
	g := diamond(t)
	if !slices.Contains(g.Succ(0), 1) || slices.Contains(g.Succ(1), 0) {
		t.Error("edge direction wrong")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Errorf("duplicate edge rejected: %v", err)
	}
	if len(g.Succ(0)) != 2 {
		t.Errorf("duplicate edge duplicated adjacency: %v", g.Succ(0))
	}
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(-1, 2); err == nil {
		t.Error("negative ID accepted")
	}
	if err := g.AddEdge(0, 99); err == nil {
		t.Error("out-of-range ID accepted")
	}
}

func TestSuccPred(t *testing.T) {
	g := diamond(t)
	if got := g.Succ(0); len(got) != 2 {
		t.Errorf("Succ(0) = %v", got)
	}
	if got := g.Pred(3); len(got) != 2 {
		t.Errorf("Pred(3) = %v", got)
	}
	if got := g.Sources(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Sources = %v", got)
	}
}

func TestTopoOrder(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.N())
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v violated by order %v", e, order)
		}
	}
	// Deterministic: smallest-ID-first Kahn on the diamond gives 0,1,2,3.
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := New("cyc")
	g.AddTask("a", swImpl("s", 1))
	g.AddTask("b", swImpl("s", 1))
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 0)
	if _, err := g.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted a cyclic graph")
	}
}

// Property: on random DAGs (edges only from lower to higher ID), TopoOrder
// succeeds and respects every edge.
func TestTopoOrderRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		g := New("rand")
		for i := 0; i < n; i++ {
			g.AddTask("t", swImpl("s", 1))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.15 {
					mustEdge(t, g, i, j)
				}
			}
		}
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			if pos[e[0]] >= pos[e[1]] {
				t.Fatalf("trial %d: edge %v violated", trial, e)
			}
		}
	}
}

func TestValidateRejections(t *testing.T) {
	mk := func() *Graph {
		g := New("v")
		g.AddTask("a", swImpl("s", 10), hwImpl("h", 2, 10, 0, 0))
		return g
	}
	g := mk()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}

	g = New("no-impl")
	g.AddTask("a")
	if err := g.Validate(); err == nil {
		t.Error("task without implementations accepted")
	}

	g = New("no-sw")
	g.AddTask("a", hwImpl("h", 2, 10, 0, 0))
	if err := g.Validate(); err == nil {
		t.Error("task without SW implementation accepted")
	}

	g = New("bad-time")
	g.AddTask("a", swImpl("s", 0))
	if err := g.Validate(); err == nil {
		t.Error("zero execution time accepted")
	}

	g = New("sw-res")
	g.AddTask("a", Implementation{Name: "s", Kind: SW, Time: 5, Res: resources.Vec(1, 0, 0)})
	if err := g.Validate(); err == nil {
		t.Error("SW implementation with resources accepted")
	}

	g = New("hw-zero")
	g.AddTask("a", swImpl("s", 5), Implementation{Name: "h", Kind: HW, Time: 5})
	if err := g.Validate(); err == nil {
		t.Error("HW implementation without resources accepted")
	}

	g = New("bad-kind")
	g.AddTask("a", Implementation{Name: "x", Kind: ImplKind(9), Time: 5})
	if err := g.Validate(); err == nil {
		t.Error("invalid impl kind accepted")
	}
}

func TestTaskHelpers(t *testing.T) {
	task := &Task{Impls: []Implementation{
		swImpl("s1", 100), hwImpl("h1", 20, 1, 0, 0), swImpl("s2", 50), hwImpl("h2", 10, 2, 0, 0),
	}}
	if got := task.HWImpls(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("HWImpls = %v", got)
	}
	if got := task.SWImpls(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("SWImpls = %v", got)
	}
	if got := task.FastestSW(); got != 2 {
		t.Errorf("FastestSW = %d, want 2", got)
	}
	if got := task.MinTime(); got != 10 {
		t.Errorf("MinTime = %d, want 10", got)
	}
	empty := &Task{}
	if got := empty.FastestSW(); got != -1 {
		t.Errorf("FastestSW on empty = %d, want -1", got)
	}
	if got := empty.MinTime(); got != 0 {
		t.Errorf("MinTime on empty = %d, want 0", got)
	}
}

func TestClone(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	if c.N() != g.N() || len(c.Edges()) != len(g.Edges()) {
		t.Fatal("clone shape mismatch")
	}
	// Mutating the clone must not affect the original.
	c.AddTask("extra", swImpl("s", 1))
	mustEdge(t, c, 3, 4)
	if g.N() != 4 || len(g.Succ(3)) != 0 {
		t.Error("clone mutation leaked into original")
	}
	// Implementations are copied by value.
	c.Tasks[0].Impls[0].Time = 9999
	if g.Tasks[0].Impls[0].Time == 9999 {
		t.Error("clone shares implementation storage")
	}
}

func TestReachable(t *testing.T) {
	g := diamond(t)
	r := g.Reachable(0)
	if len(r) != 3 || !r[1] || !r[2] || !r[3] {
		t.Errorf("Reachable(0) = %v", r)
	}
	if len(g.Reachable(3)) != 0 {
		t.Error("sink should reach nothing")
	}
}

func TestDepth(t *testing.T) {
	g := diamond(t)
	d, err := g.Depth()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("Depth[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != g.Name || back.N() != g.N() {
		t.Fatalf("round trip lost shape: %s %d", back.Name, back.N())
	}
	for i, task := range g.Tasks {
		bt := back.Tasks[i]
		if bt.Name != task.Name || len(bt.Impls) != len(task.Impls) {
			t.Fatalf("task %d mismatch", i)
		}
		for j := range task.Impls {
			if bt.Impls[j] != task.Impls[j] {
				t.Errorf("task %d impl %d: %+v != %+v", i, j, bt.Impls[j], task.Impls[j])
			}
		}
	}
	ge, be := g.Edges(), back.Edges()
	if len(ge) != len(be) {
		t.Fatalf("edge count %d != %d", len(be), len(ge))
	}
	for i := range ge {
		if ge[i] != be[i] {
			t.Errorf("edge %d: %v != %v", i, be[i], ge[i])
		}
	}
}

func TestJSONRejectsBadKind(t *testing.T) {
	doc := `{"name":"x","tasks":[{"name":"a","impls":[{"name":"i","kind":"FPGA","time":3}]}],"edges":[]}`
	var g Graph
	if err := json.Unmarshal([]byte(doc), &g); err == nil {
		t.Error("unknown impl kind accepted")
	}
}

func TestJSONRejectsBadEdge(t *testing.T) {
	doc := `{"name":"x","tasks":[{"name":"a","impls":[{"name":"i","kind":"SW","time":3}]}],"edges":[[0,5]]}`
	var g Graph
	if err := json.Unmarshal([]byte(doc), &g); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, frag := range []string{"digraph", "t0 -> t1", "t2 -> t3", "a_hw"} {
		if !strings.Contains(s, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, s)
		}
	}
}

func TestTopoOrderAdjWithoutPred(t *testing.T) {
	succ := [][]int{{1, 2}, {3}, {3}, nil}
	order, err := TopoOrderAdj(4, succ, nil)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 0 || order[3] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestImplKindString(t *testing.T) {
	if HW.String() != "HW" || SW.String() != "SW" {
		t.Error("kind strings wrong")
	}
	if !strings.Contains(ImplKind(7).String(), "7") {
		t.Error("unknown kind string")
	}
}

func TestAddEdgeComm(t *testing.T) {
	g := New("comm")
	g.AddTask("a", swImpl("s", 1))
	g.AddTask("b", swImpl("s", 1))
	if err := g.AddEdgeComm(0, 1, 40); err != nil {
		t.Fatal(err)
	}
	if got := g.EdgeComm(0, 1); got != 40 {
		t.Errorf("EdgeComm = %d, want 40", got)
	}
	if got := g.EdgeComm(1, 0); got != 0 {
		t.Errorf("missing edge comm = %d, want 0", got)
	}
	// Re-adding keeps the larger communication time.
	if err := g.AddEdgeComm(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	if got := g.EdgeComm(0, 1); got != 40 {
		t.Errorf("smaller re-add lowered comm to %d", got)
	}
	if err := g.AddEdgeComm(0, 1, 90); err != nil {
		t.Fatal(err)
	}
	if got := g.EdgeComm(0, 1); got != 90 {
		t.Errorf("larger re-add ignored: %d", got)
	}
	if len(g.Succ(0)) != 1 {
		t.Errorf("duplicate adjacency after re-adds: %v", g.Succ(0))
	}
	if err := g.AddEdgeComm(0, 1, -5); err == nil {
		t.Error("negative communication accepted")
	}
}

func TestCommJSONRoundTrip(t *testing.T) {
	g := New("comm")
	for i := 0; i < 3; i++ {
		g.AddTask("t", swImpl("s", 10))
	}
	if err := g.AddEdgeComm(0, 1, 123); err != nil {
		t.Fatal(err)
	}
	mustEdge(t, g, 1, 2) // zero-comm edge
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"comm\"") {
		t.Errorf("comm array missing from JSON:\n%s", buf.String())
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.EdgeComm(0, 1) != 123 || back.EdgeComm(1, 2) != 0 {
		t.Errorf("round trip lost comm: %d, %d", back.EdgeComm(0, 1), back.EdgeComm(1, 2))
	}
	// Graphs without comm omit the array entirely.
	plain := New("plain")
	plain.AddTask("a", swImpl("s", 1))
	plain.AddTask("b", swImpl("s", 1))
	mustEdge(t, plain, 0, 1)
	buf.Reset()
	if err := plain.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\"comm\"") {
		t.Error("comm array emitted for a comm-free graph")
	}
}

func TestCommJSONLengthMismatch(t *testing.T) {
	doc := `{"name":"x","tasks":[{"name":"a","impls":[{"name":"i","kind":"SW","time":3}]},
	 {"name":"b","impls":[{"name":"i","kind":"SW","time":3}]}],
	 "edges":[[0,1]],"comm":[1,2]}`
	var g Graph
	if err := json.Unmarshal([]byte(doc), &g); err == nil {
		t.Error("comm/edges length mismatch accepted")
	}
}

func TestClonePreservesComm(t *testing.T) {
	g := New("c")
	g.AddTask("a", swImpl("s", 1))
	g.AddTask("b", swImpl("s", 1))
	if err := g.AddEdgeComm(0, 1, 55); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if c.EdgeComm(0, 1) != 55 {
		t.Errorf("clone comm = %d", c.EdgeComm(0, 1))
	}
}

// mustEdge adds a dependency or fails the test; the library itself no longer
// panics on construction errors.
func mustEdge(tb testing.TB, g *Graph, from, to int) {
	tb.Helper()
	if err := g.AddEdge(from, to); err != nil {
		tb.Fatal(err)
	}
}

// checkCommAlignment asserts that the communication times stored beside the
// adjacency lists agree with EdgeComm for every edge, in both directions,
// and that every adjacency entry is an edge Edges reports.
func checkCommAlignment(t *testing.T, g *Graph) {
	t.Helper()
	adjacent := 0
	for v := 0; v < g.N(); v++ {
		if len(g.SuccComm(v)) != len(g.Succ(v)) || len(g.PredComm(v)) != len(g.Pred(v)) {
			t.Fatalf("task %d: comm lists %d/%d for %d successors, %d predecessors",
				v, len(g.SuccComm(v)), len(g.PredComm(v)), len(g.Succ(v)), len(g.Pred(v)))
		}
		for i, w := range g.Succ(v) {
			if c := g.SuccComm(v)[i]; c != g.EdgeComm(v, w) {
				t.Fatalf("edge (%d,%d): SuccComm %d, EdgeComm %d", v, w, c, g.EdgeComm(v, w))
			}
		}
		for i, u := range g.Pred(v) {
			if c := g.PredComm(v)[i]; c != g.EdgeComm(u, v) {
				t.Fatalf("edge (%d,%d): PredComm %d, EdgeComm %d", u, v, c, g.EdgeComm(u, v))
			}
		}
		adjacent += len(g.Succ(v))
	}
	if n := len(g.Edges()); n != adjacent {
		t.Fatalf("Edges reports %d edges, adjacency holds %d", n, adjacent)
	}
}

// TestCommAlignment checks the adjacency-aligned communication times after
// duplicate insertions (the larger time is kept), a Clone and a JSON round
// trip, and that Edges keeps its lexicographic order throughout.
func TestCommAlignment(t *testing.T) {
	g := New("align")
	for i := 0; i < 6; i++ {
		g.AddTask("t", Implementation{Name: "sw", Kind: SW, Time: 10})
	}
	// Successors are inserted out of target order on purpose.
	for _, e := range []struct {
		from, to int
		comm     int64
	}{
		{0, 4, 3}, {0, 1, 0}, {0, 2, 9}, {1, 3, 5}, {2, 3, 1}, {4, 5, 2},
		{0, 4, 8}, {0, 4, 1}, {2, 3, 0}, {1, 3, 7}, // duplicates
	} {
		if err := g.AddEdgeComm(e.from, e.to, e.comm); err != nil {
			t.Fatal(err)
		}
	}
	want := [][2]int{{0, 1}, {0, 2}, {0, 4}, {1, 3}, {2, 3}, {4, 5}}
	wantComm := []int64{0, 9, 8, 7, 1, 2}
	check := func(label string, g *Graph) {
		t.Helper()
		checkCommAlignment(t, g)
		if got := g.Edges(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Edges = %v, want %v", label, got, want)
		}
		for i, e := range want {
			if c := g.EdgeComm(e[0], e[1]); c != wantComm[i] {
				t.Errorf("%s: EdgeComm%v = %d, want %d", label, e, c, wantComm[i])
			}
		}
		if g.EdgeComm(3, 0) != 0 || slices.Contains(g.Succ(3), 0) || g.EdgeComm(-1, 0) != 0 || g.EdgeComm(99, 0) != 0 {
			t.Errorf("%s: absent edges must report no edge and zero comm", label)
		}
	}
	check("built", g)
	check("clone", g.Clone())
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("json", loaded)

	// A decoded document with the same duplicate edges, in the same order,
	// resolves them as AddEdgeComm does.
	doc := `{"name":"align","tasks":[` + strings.Repeat(`{"name":"t","impls":[{"name":"sw","kind":"SW","time":10}]},`, 5) +
		`{"name":"t","impls":[{"name":"sw","kind":"SW","time":10}]}],` +
		`"edges":[[0,4],[0,1],[0,2],[1,3],[2,3],[4,5],[0,4],[0,4],[2,3],[1,3]],` +
		`"comm":[3,0,9,5,1,2,8,1,0,7]}`
	dups, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	check("json duplicates", dups)
	for v := 0; v < g.N(); v++ {
		if !reflect.DeepEqual(dups.Succ(v), g.Succ(v)) || !reflect.DeepEqual(dups.Pred(v), g.Pred(v)) {
			t.Fatalf("task %d: decoded adjacency %v/%v, built %v/%v", v, dups.Succ(v), dups.Pred(v), g.Succ(v), g.Pred(v))
		}
	}
	edges, comm := g.EdgesComm()
	if !reflect.DeepEqual(edges, want) || !reflect.DeepEqual(comm, wantComm) {
		t.Fatalf("EdgesComm = %v %v, want %v %v", edges, comm, want, wantComm)
	}
}

// TestDecodeTakesCanonicalPath: MarshalJSON and Write output is read by
// the canonical reader, not by encoding/json, and both paths build the
// same graph from it.
func TestDecodeTakesCanonicalPath(t *testing.T) {
	g := New("canon")
	g.AddTask("a",
		Implementation{Name: "a_sw", Kind: SW, Time: 100},
		Implementation{Name: "a_hw", Kind: HW, Time: 10, Res: resources.Vec(100, 1, 2)})
	g.AddTask("b", Implementation{Name: "b_sw", Kind: SW, Time: 5})
	g.AddTask("c", Implementation{Name: "c_sw", Kind: SW, Time: 7})
	for _, e := range [][3]int64{{0, 1, 7}, {0, 2, 0}, {1, 2, 3}} {
		if err := g.AddEdgeComm(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	compact, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := g.Write(&indented); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{compact, indented.Bytes()} {
		r := canonjson.NewReader(data)
		fast, err := ReadCanonical(r)
		if err != nil || !r.Done() {
			t.Fatalf("canonical reader declined or failed (%v) on %s", err, data)
		}
		slow, err := decodeJSON(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, slow) || !reflect.DeepEqual(fast, g) {
			t.Fatalf("canonical reader built a different graph from %s", data)
		}
	}
}

// TestReadReplaysReadErrors: when the reader fails, Read answers as the
// decoder over the same reader did: a value complete before the failure
// still decodes, a cut one reports the read error.
func TestReadReplaysReadErrors(t *testing.T) {
	boom := errors.New("boom")
	failAfter := func(data string) io.Reader {
		return io.MultiReader(strings.NewReader(data), iotest.ErrReader(boom))
	}
	for _, data := range []string{
		`{"name":"x","tasks":[{"name":"t","impls":[{"name":"i","kind":"SW","time":1}]}]}`,
		`{"name":"x","ta`,
		``,
	} {
		g, err := Read(failAfter(data))
		wg, werr := decodeJSON(failAfter(data))
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) || !reflect.DeepEqual(g, wg) {
			t.Errorf("%q: Read = (%v, %v), decoder = (%v, %v)", data, g, err, wg, werr)
		}
	}
}
