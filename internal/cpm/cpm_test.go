package cpm

import (
	"math/rand"
	"testing"

	"resched/internal/taskgraph"
)

// chainGraph builds t0 → t1 → … → t(n-1).
func chain(n int) (succ, pred [][]int) {
	succ = make([][]int, n)
	pred = make([][]int, n)
	for i := 0; i < n-1; i++ {
		succ[i] = []int{i + 1}
		pred[i+1] = []int{i}
	}
	return
}

func TestChain(t *testing.T) {
	succ, pred := chain(3)
	r, err := Compute(3, succ, pred, []int64{5, 7, 2}, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 14 {
		t.Errorf("Makespan = %d, want 14", r.Makespan)
	}
	wantEST := []int64{0, 5, 12}
	wantLFT := []int64{5, 12, 14}
	for i := range wantEST {
		if r.EST[i] != wantEST[i] || r.LFT[i] != wantLFT[i] {
			t.Errorf("task %d window [%d,%d], want [%d,%d]", i, r.EST[i], r.LFT[i], wantEST[i], wantLFT[i])
		}
		if !r.Critical(i) {
			t.Errorf("task %d on a chain must be critical", i)
		}
	}
	if got := r.CriticalTasks(); len(got) != 3 {
		t.Errorf("CriticalTasks = %v", got)
	}
}

func TestDiamondSlack(t *testing.T) {
	// 0 → {1 (long), 2 (short)} → 3. Task 2 has slack, others critical.
	succ := [][]int{{1, 2}, {3}, {3}, nil}
	pred := [][]int{nil, {0}, {0}, {1, 2}}
	r, err := Compute(4, succ, pred, []int64{1, 10, 4, 1}, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 12 {
		t.Fatalf("Makespan = %d, want 12", r.Makespan)
	}
	if !r.Critical(0) || !r.Critical(1) || !r.Critical(3) {
		t.Error("critical tasks misidentified")
	}
	if r.Critical(2) {
		t.Error("task 2 should have slack")
	}
	if got := r.Slack(2); got != 6 {
		t.Errorf("Slack(2) = %d, want 6", got)
	}
	tmin, tmax := r.Window(2)
	if tmin != 1 || tmax != 11 {
		t.Errorf("Window(2) = [%d,%d], want [1,11]", tmin, tmax)
	}
}

func TestRelease(t *testing.T) {
	succ, pred := chain(2)
	r, err := Compute(2, succ, pred, []int64{3, 3}, []int64{10, 0}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if r.EST[0] != 10 || r.EST[1] != 13 || r.Makespan != 16 {
		t.Errorf("release ignored: EST=%v makespan=%d", r.EST, r.Makespan)
	}
}

func TestDeadlineExtendsWindows(t *testing.T) {
	succ, pred := chain(2)
	r, err := Compute(2, succ, pred, []int64{3, 3}, nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.LFT[1] != 20 || r.LFT[0] != 17 {
		t.Errorf("deadline windows wrong: LFT=%v", r.LFT)
	}
	if r.Critical(0) || r.Critical(1) {
		t.Error("slack induced by a loose deadline should clear criticality")
	}
	// Makespan reflects actual path length, not the deadline.
	if r.Makespan != 6 {
		t.Errorf("Makespan = %d, want 6", r.Makespan)
	}
}

func TestErrors(t *testing.T) {
	succ, pred := chain(2)
	if _, err := Compute(2, succ, pred, []int64{1}, nil, -1); err == nil {
		t.Error("duration length mismatch accepted")
	}
	if _, err := Compute(2, succ, pred, []int64{1, -1}, nil, -1); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := Compute(2, succ, pred, []int64{1, 1}, []int64{0}, -1); err == nil {
		t.Error("release length mismatch accepted")
	}
	cyc := [][]int{{1}, {0}}
	if _, err := Compute(2, cyc, nil, []int64{1, 1}, nil, -1); err == nil {
		t.Error("cycle accepted")
	}
}

// Property tests on random DAGs: fundamental CPM invariants.
func TestRandomDAGInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(30)
		succ := make([][]int, n)
		pred := make([][]int, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					succ[i] = append(succ[i], j)
					pred[j] = append(pred[j], i)
				}
			}
		}
		dur := make([]int64, n)
		for i := range dur {
			dur[i] = int64(1 + rng.Intn(100))
		}
		r, err := Compute(n, succ, pred, dur, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		anyCritical := false
		for v := 0; v < n; v++ {
			// Window sanity: EST + dur ≤ LFT ≤ makespan.
			if r.EST[v]+dur[v] > r.LFT[v] {
				t.Fatalf("trial %d: task %d window inverted [%d,%d] dur %d", trial, v, r.EST[v], r.LFT[v], dur[v])
			}
			if r.LFT[v] > r.Makespan {
				t.Fatalf("trial %d: LFT beyond makespan", trial)
			}
			// Precedence: windows of dependent tasks are compatible.
			for _, w := range succ[v] {
				if r.EST[v]+dur[v] > r.EST[w] {
					t.Fatalf("trial %d: EST precedence violated %d→%d", trial, v, w)
				}
				if r.LFT[v] > r.LFT[w]-dur[w] {
					t.Fatalf("trial %d: LFT precedence violated %d→%d", trial, v, w)
				}
			}
			if r.Critical(v) {
				anyCritical = true
			}
		}
		if !anyCritical {
			t.Fatalf("trial %d: no critical task", trial)
		}
		// The critical tasks must include a source starting at 0 and a task
		// finishing exactly at the makespan.
		foundStart, foundEnd := false, false
		for _, v := range r.CriticalTasks() {
			if r.EST[v] == 0 {
				foundStart = true
			}
			if r.EST[v]+dur[v] == r.Makespan {
				foundEnd = true
			}
		}
		if !foundStart || !foundEnd {
			t.Fatalf("trial %d: critical path endpoints missing", trial)
		}
	}
}

func TestComputeGraph(t *testing.T) {
	g := taskgraph.New("g")
	sw := taskgraph.Implementation{Name: "s", Kind: taskgraph.SW, Time: 1}
	for i := 0; i < 3; i++ {
		g.AddTask("t", sw)
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	r, err := ComputeGraph(g, []int64{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 9 {
		t.Errorf("Makespan = %d, want 9", r.Makespan)
	}
}

func TestComputeEdgesComm(t *testing.T) {
	// Chain with communication: 0 →(10)→ 1 →(20)→ 2, durations 5 each.
	succ, pred := chain(3)
	comm := [][]int64{{10}, {20}, nil}
	r, err := ComputeEdges(3, succ, pred, []int64{5, 5, 5}, nil, -1, comm)
	if err != nil {
		t.Fatal(err)
	}
	wantEST := []int64{0, 15, 40}
	for i, want := range wantEST {
		if r.EST[i] != want {
			t.Errorf("EST[%d] = %d, want %d", i, r.EST[i], want)
		}
	}
	if r.Makespan != 45 {
		t.Errorf("Makespan = %d, want 45", r.Makespan)
	}
	// Backward pass subtracts communication too: every chain task stays
	// critical.
	for i := 0; i < 3; i++ {
		if !r.Critical(i) {
			t.Errorf("task %d should be critical", i)
		}
	}
}

func TestComputeEdgesNilComm(t *testing.T) {
	succ, pred := chain(2)
	a, err := Compute(2, succ, pred, []int64{3, 4}, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComputeEdges(2, succ, pred, []int64{3, 4}, nil, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.EST[1] != b.EST[1] {
		t.Error("nil comm changed the result")
	}
}

func TestComputeEdgesCommSlack(t *testing.T) {
	// Diamond where one branch pays communication: the free branch gains
	// slack.
	succ := [][]int{{1, 2}, {3}, {3}, nil}
	pred := [][]int{nil, {0}, {0}, {1, 2}}
	comm := [][]int64{{0, 0}, {100}, {0}, nil}
	r, err := ComputeEdges(4, succ, pred, []int64{1, 10, 10, 1}, nil, -1, comm)
	if err != nil {
		t.Fatal(err)
	}
	// Path through 1: 1 + 10 + 100 + 1 = 112; through 2: 22.
	if r.Makespan != 112 {
		t.Fatalf("Makespan = %d, want 112", r.Makespan)
	}
	if r.Critical(2) {
		t.Error("cheap branch should have slack")
	}
	if !r.Critical(1) {
		t.Error("comm-heavy branch should be critical")
	}
	// Task 2 may finish as late as lst(3) = 111 (its edge carries no
	// communication), so slack = 111 − 1 − 10.
	if got := r.Slack(2); got != 100 {
		t.Errorf("Slack(2) = %d, want 100", got)
	}
}
