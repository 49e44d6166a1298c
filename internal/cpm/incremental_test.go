package cpm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// net is a mutable combined graph with comm lists aligned to both
// adjacencies, as sched.state keeps it.
type net struct {
	succ, pred         [][]int
	succComm, predComm [][]int64
	dur, release       []int64
}

func newNet(n int) *net {
	return &net{
		succ: make([][]int, n), pred: make([][]int, n),
		succComm: make([][]int64, n), predComm: make([][]int64, n),
		dur: make([]int64, n), release: make([]int64, n),
	}
}

func (g *net) addEdge(u, v int, c int64) {
	g.succ[u] = append(g.succ[u], v)
	g.succComm[u] = append(g.succComm[u], c)
	g.pred[v] = append(g.pred[v], u)
	g.predComm[v] = append(g.predComm[v], c)
}

// removeLastEdge drops the edge addEdge(u, v, …) appended last.
func (g *net) removeLastEdge(u, v int) {
	g.succ[u], g.succComm[u] = g.succ[u][:len(g.succ[u])-1], g.succComm[u][:len(g.succComm[u])-1]
	g.pred[v], g.predComm[v] = g.pred[v][:len(g.pred[v])-1], g.predComm[v][:len(g.predComm[v])-1]
}

func (g *net) hasEdge(u, v int) bool { return slices.Contains(g.succ[u], v) }

// byteStream hands out fuzz bytes as small integers, 0 once exhausted.
type byteStream []byte

func (b *byteStream) next(k int) int {
	if len(*b) == 0 || k <= 0 {
		return 0
	}
	v := int((*b)[0]) % k
	*b = (*b)[1:]
	return v
}

// checkAgainstFull compares an Update result with a fresh full pass on the
// same graph.
func checkAgainstFull(t *testing.T, step string, g *net, deadline int64, est, lft []int64, mk int64, err error) {
	t.Helper()
	n := len(g.dur)
	r, ferr := ComputeEdges(n, g.succ, g.pred, g.dur, g.release, deadline, g.succComm)
	if (err == nil) != (ferr == nil) || (err != nil && err.Error() != ferr.Error()) {
		t.Fatalf("%s: error %v, full pass %v", step, err, ferr)
	}
	if ferr != nil {
		return
	}
	if mk != r.Makespan || !slices.Equal(est, r.EST) || !slices.Equal(lft, r.LFT) {
		t.Fatalf("%s: incremental makespan %d est %v lft %v\nfull pass makespan %d est %v lft %v",
			step, mk, est, lft, r.Makespan, r.EST, r.LFT)
	}
}

// FuzzIncrementalTiming builds a random DAG, times it once, and then applies
// batches of mutations — edges with and against the topological order,
// edges that close a cycle, release raises, duration rises and falls —
// reporting each to the workspace. After every Update, est, lft, makespan
// and the error must equal a fresh ComputeEdges on the mutated graph.
func FuzzIncrementalTiming(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{12, 30, 1, 0, 3, 1, 5, 2, 9, 7, 0, 4, 4, 8, 2, 1, 3, 3, 6, 0, 5, 2, 1, 1})
	f.Add([]byte("incremental critical path timing under sequencing edges"))
	f.Add([]byte{40, 10, 0, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 0, 0, 0, 1, 1, 1})
	f.Add([]byte{7, 255, 128, 3, 5, 0, 6, 1, 4, 2, 5, 3, 2, 4, 1, 5, 0, 6, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := byteStream(data)
		n := 1 + in.next(48)
		deadline := int64(-1)
		if in.next(4) == 0 {
			deadline = int64(in.next(256)) * 40
		}
		rng := rand.New(rand.NewSource(int64(in.next(256))))
		g := newNet(n)
		// Edges go from lower to higher IDs, so the start is acyclic.
		density := 1 + in.next(4)
		for u := 0; u < n; u++ {
			g.dur[u] = int64(rng.Intn(50))
			for v := u + 1; v < n; v++ {
				if rng.Intn(10) < density {
					g.addEdge(u, v, int64(rng.Intn(3)*rng.Intn(20)))
				}
			}
		}
		var ws Workspace
		est, lft, mk, err := ws.Update(n, g.succ, g.pred, g.dur, g.release, deadline, g.succComm, g.predComm)
		checkAgainstFull(t, "initial pass", g, deadline, est, lft, mk, err)

		for step := 0; step < 40; step++ {
			var ops []string
			var cycle [2]int
			cyclic := false
			for batch := 1 + in.next(3); batch > 0; batch-- {
				u, v := rng.Intn(n), rng.Intn(n)
				switch in.next(6) {
				case 0, 1: // a new edge, forward or against the current order
					if u == v || g.hasEdge(u, v) || g.hasEdge(v, u) {
						continue
					}
					if ws.valid && ws.pos[u] > ws.pos[v] && in.next(2) == 0 {
						u, v = v, u // mostly keep to the order
					}
					g.addEdge(u, v, int64(rng.Intn(2)*rng.Intn(15)))
					if reachable(g, v, u) {
						cycle, cyclic = [2]int{u, v}, true
					}
					ws.EdgeAdded(u, v)
					ops = append(ops, fmt.Sprintf("edge %d→%d", u, v))
				case 2: // an edge that closes a cycle
					if len(g.succ[u]) == 0 {
						continue
					}
					w := g.succ[u][rng.Intn(len(g.succ[u]))]
					g.addEdge(w, u, 0)
					cycle, cyclic = [2]int{w, u}, true
					ws.EdgeAdded(w, u)
					ops = append(ops, fmt.Sprintf("cycle edge %d→%d", w, u))
				case 3: // a raised release
					g.release[u] += int64(1 + rng.Intn(200))
					ws.ReleaseChanged(u)
					ops = append(ops, fmt.Sprintf("release %d=%d", u, g.release[u]))
				case 4: // a duration rise
					g.dur[u] += int64(1 + rng.Intn(60))
					ws.DurationChanged(u)
					ops = append(ops, fmt.Sprintf("dur %d=%d", u, g.dur[u]))
				case 5: // a duration fall
					g.dur[u] = int64(rng.Intn(int(g.dur[u]) + 1))
					ws.DurationChanged(u)
					ops = append(ops, fmt.Sprintf("dur %d=%d", u, g.dur[u]))
				}
				if cyclic {
					break
				}
			}
			est, lft, mk, err = ws.Update(n, g.succ, g.pred, g.dur, g.release, deadline, g.succComm, g.predComm)
			checkAgainstFull(t, fmt.Sprintf("step %d [%s]", step, strings.Join(ops, ", ")), g, deadline, est, lft, mk, err)
			if cyclic {
				if err == nil {
					t.Fatalf("step %d: cycle through %d→%d not reported", step, cycle[0], cycle[1])
				}
				// Take the closing edge back out; the failed pass left the
				// workspace without timing, so the next Update starts over.
				g.removeLastEdge(cycle[0], cycle[1])
			}
		}
	})
}

// reachable reports whether to is reachable from from.
func reachable(g *net, from, to int) bool {
	seen := make([]bool, len(g.succ))
	stack := []int{from}
	seen[from] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == to {
			return true
		}
		for _, w := range g.succ[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// A comm row shorter (or longer) than its successor list is an error, not
// an index-out-of-range panic.
func TestComputeEdgesMisalignedComm(t *testing.T) {
	succ, pred := chain(2)
	for _, comm := range [][][]int64{{nil, nil}, {{1, 2}, nil}} {
		_, err := ComputeEdges(2, succ, pred, []int64{1, 1}, nil, -1, comm)
		if err == nil || !strings.Contains(err.Error(), "communication times") {
			t.Errorf("comm %v: err = %v, want a misalignment error", comm, err)
		}
	}
}

// The first Update on a workspace, and every Update after Invalidate or
// after an edge against the order, is a full pass; the rest are
// incremental.
func TestUpdatePasses(t *testing.T) {
	g := newNet(3)
	g.dur = []int64{5, 7, 2}
	g.addEdge(0, 1, 0)
	var ws Workspace
	update := func() {
		t.Helper()
		est, lft, mk, err := ws.Update(3, g.succ, g.pred, g.dur, g.release, -1, g.succComm, g.predComm)
		checkAgainstFull(t, "update", g, -1, est, lft, mk, err)
	}
	update()
	g.addEdge(1, 2, 3) // forward in the order 0, 1, 2
	ws.EdgeAdded(1, 2)
	update()
	g.release[0] = 4
	ws.ReleaseChanged(0)
	update()
	if full, inc := ws.Passes(); full != 1 || inc != 2 {
		t.Fatalf("passes = %d full, %d incremental; want 1, 2", full, inc)
	}
	g.addEdge(2, 0, 0) // closes a cycle
	ws.EdgeAdded(2, 0)
	if _, _, _, err := ws.Update(3, g.succ, g.pred, g.dur, g.release, -1, g.succComm, g.predComm); err == nil {
		t.Fatal("cycle accepted")
	}
	g.removeLastEdge(2, 0)
	update()
	if full, inc := ws.Passes(); full != 3 || inc != 2 {
		t.Fatalf("passes = %d full, %d incremental; want 3, 2", full, inc)
	}
}

// BenchmarkTimingUpdate re-times a 70-task random DAG after one release
// change, by the full pass and by the incremental update.
func BenchmarkTimingUpdate(b *testing.B) {
	const n = 70
	rng := rand.New(rand.NewSource(1))
	g := newNet(n)
	for u := 0; u < n; u++ {
		g.dur[u] = int64(10 + rng.Intn(90))
		for v := u + 1; v < n; v++ {
			if rng.Intn(100) < 6 {
				g.addEdge(u, v, int64(rng.Intn(20)))
			}
		}
	}
	t := n / 2
	b.Run("pass=full", func(b *testing.B) {
		var ws Workspace
		for i := 0; i < b.N; i++ {
			g.release[t] = int64(i%2) * 50
			if _, _, _, err := ws.ComputeEdges(n, g.succ, g.pred, g.dur, g.release, -1, g.succComm); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pass=incremental", func(b *testing.B) {
		var ws Workspace
		if _, _, _, err := ws.ComputeEdges(n, g.succ, g.pred, g.dur, g.release, -1, g.succComm); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.release[t] = int64(i%2) * 50
			ws.ReleaseChanged(t)
			if _, _, _, err := ws.Update(n, g.succ, g.pred, g.dur, g.release, -1, g.succComm, g.predComm); err != nil {
				b.Fatal(err)
			}
		}
	})
}
