package schedcache

import (
	"encoding/json"
	"testing"
	"time"

	"resched/internal/arch"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

// fanOutDoc encodes an n+1-task graph with n edges: a star whose hub
// feeds every other task, or a chain of the same size. Tasks carry no
// implementations, which keeps the document to its edges.
func fanOutDoc(tb testing.TB, n int, star bool) []byte {
	tb.Helper()
	g := taskgraph.New("fanout")
	for i := 0; i <= n; i++ {
		g.AddTask("t")
	}
	for i := 1; i <= n; i++ {
		from := i - 1
		if star {
			from = 0
		}
		if err := g.AddEdgeComm(from, i, int64(i%7)); err != nil {
			tb.Fatal(err)
		}
	}
	doc, err := json.Marshal(g)
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// decodeAndKey is the request-entry path for an untrusted graph: decode,
// re-encode and derive the cache key.
func decodeAndKey(tb testing.TB, doc []byte) time.Duration {
	tb.Helper()
	start := time.Now()
	var g taskgraph.Graph
	if err := json.Unmarshal(doc, &g); err != nil {
		tb.Fatal(err)
	}
	if _, err := json.Marshal(&g); err != nil {
		tb.Fatal(err)
	}
	Key(&solve.Request{Graph: &g, Arch: arch.ZedBoard()}, "pa")
	return time.Since(start)
}

// TestHighFanOutCostIsLinear guards the entry path against per-edge scans
// of a hub's adjacency list: graphs arrive from outside the program, and a
// scan per edge makes a star with d successors cost O(d²). A 25k-successor
// star must decode, re-encode and key in about the time of a chain with
// the same task and edge counts; the quadratic form takes about ten times
// as long.
func TestHighFanOutCostIsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 25k-task graphs")
	}
	const n = 25_000
	star, chain := fanOutDoc(t, n, true), fanOutDoc(t, n, false)
	best := func(doc []byte) time.Duration {
		return min(decodeAndKey(t, doc), decodeAndKey(t, doc))
	}
	tStar, tChain := best(star), best(chain)
	t.Logf("star %v, chain %v", tStar, tChain)
	if tStar > 4*tChain+20*time.Millisecond {
		t.Errorf("%d-successor star took %v, chain of the same size %v: per-edge cost grows with fan-out", n, tStar, tChain)
	}
}
