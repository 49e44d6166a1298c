package obs

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// raceWorkload drives one trace the way a parallel solver does: N workers
// concurrently recording commutative instruments (counters, gauges,
// histograms, root spans on lanes of their own) with per-worker deterministic values,
// then — after the join, exactly like the PA-R merge — a single goroutine
// emitting the flight-recorder events in a fixed order.
func raceWorkload(workers, perWorker int) *Trace {
	tr := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.StartRoot("race.iteration", Int("worker", int64(w)))
				tr.Count("race.total", 1)
				tr.Count(fmt.Sprintf("race.worker.%d", w), 1)
				tr.SetGauge(fmt.Sprintf("race.gauge.%d", w), float64(w))
				tr.Observe("race.values", float64(w*perWorker+i))
				sp.End(Str("outcome", "ok"))
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		tr.Event("race.done", Int("worker", int64(w)))
	}
	return tr
}

// TestConcurrentRecordingDeterminism is the -race coverage for obs v2: all
// instruments are hammered from concurrent workers, and because every
// recorded value is commutative (and events are deferred to after the
// join), two repetitions of the same workload must produce identical
// canonical snapshots regardless of goroutine interleaving.
func TestConcurrentRecordingDeterminism(t *testing.T) {
	const workers, perWorker = 8, 200
	first := raceWorkload(workers, perWorker).Snapshot().Canonical()
	second := raceWorkload(workers, perWorker).Snapshot().Canonical()

	if got := first.Counters["race.total"]; got != workers*perWorker {
		t.Errorf("race.total = %d, want %d", got, workers*perWorker)
	}
	if got := first.Histograms["race.values"].Count; got != workers*perWorker {
		t.Errorf("race.values count = %d, want %d", got, workers*perWorker)
	}
	if got := len(first.Events); got != workers {
		t.Errorf("recorded %d events, want %d", got, workers)
	}
	// Canonical drops the spans (their count is interleaving-independent but
	// their order is not) and event wall-clock times; everything left must
	// match bit for bit.
	if !reflect.DeepEqual(first, second) {
		t.Errorf("canonical snapshots differ across identical concurrent runs:\n%+v\nvs\n%+v",
			first, second)
	}
}

// TestConcurrentEventsCountAll covers the flight-recorder ring itself under
// contention: when events *are* emitted concurrently their order is
// arrival order (not asserted), but none may be lost and the ring must
// stay coherent — EventsSeen counts all, the ring holds the last capacity.
func TestConcurrentEventsCountAll(t *testing.T) {
	tr := New()
	const workers, perWorker = 8, 300 // workers*perWorker > ring capacity
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Event("race.event", Int("worker", int64(w)), Int("i", int64(i)))
			}
		}(w)
	}
	wg.Wait()
	snap := tr.Snapshot()
	if snap.EventsSeen != workers*perWorker {
		t.Errorf("EventsSeen = %d, want %d", snap.EventsSeen, workers*perWorker)
	}
	if len(snap.Events) != defaultEventCapacity {
		t.Errorf("ring holds %d events, want capacity %d", len(snap.Events), defaultEventCapacity)
	}
	for i := 1; i < len(snap.Events); i++ {
		if snap.Events[i].Seq <= snap.Events[i-1].Seq {
			t.Fatalf("ring not in seq order at %d: %d then %d",
				i, snap.Events[i-1].Seq, snap.Events[i].Seq)
		}
	}
}

// TestLanesDoNotCrossNest runs nested Start/End pairs from concurrent
// goroutines, each on its own Lane forked under one shared parent span:
// every child must land under its own goroutine's span, and the shared
// parent must stay open until its owner ends it.
func TestLanesDoNotCrossNest(t *testing.T) {
	tr := New()
	run := tr.Start("run")
	const workers, perWorker = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lane := tr.Lane()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				outer := lane.Start("outer", Int("worker", int64(w)))
				inner := lane.Start("inner", Int("worker", int64(w)))
				inner.End()
				outer.End()
			}
		}(w)
	}
	wg.Wait()
	after := tr.Start("after")
	after.End()
	run.End()

	snap := tr.Snapshot()
	worker := func(sp SpanInfo) any { return sp.Args[0].Val }
	for i, sp := range snap.Spans {
		switch sp.Name {
		case "outer", "after":
			if sp.Parent != 0 {
				t.Fatalf("span %d %s: parent %d, want the run span", i, sp.Name, sp.Parent)
			}
		case "inner":
			p := snap.Spans[sp.Parent]
			if p.Name != "outer" || worker(p) != worker(sp) {
				t.Fatalf("span %d inner of worker %v nested under %s of worker %v",
					i, worker(sp), p.Name, worker(p))
			}
			if sp.Start < p.Start || sp.End > p.End {
				t.Fatalf("span %d escapes its parent", i)
			}
		}
	}
	if root := snap.Spans[0]; root.End < snap.Spans[len(snap.Spans)-1].End {
		t.Errorf("run span closed at %v before its last child ended", root.End)
	}
}
