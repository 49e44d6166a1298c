package online

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"resched/internal/arch"
	"resched/internal/budget"
	"resched/internal/faultinject"
	"resched/internal/obs"
	"resched/internal/schedule"
	"resched/internal/sim"
	"resched/internal/solve"
)

func runTrace(t *testing.T, cfg Config, tr *Trace) *Result {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	res, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func genTrace(t *testing.T, tc TraceConfig) *Trace {
	t.Helper()
	tr, err := GenTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// stripTimes zeroes the wall-clock fields so epoch records compare
// deterministically.
func stripTimes(es []EpochStats) []EpochStats {
	out := append([]EpochStats(nil), es...)
	for i := range out {
		out[i].ReplanTime = 0
	}
	return out
}

// TestStitchedScheduleProperty is the end-to-end invariant over many seeded
// traces: every run's stitched schedule is one valid global schedule, the
// arrival-driven simulator replays it within the planned makespan, and no
// task starts before its effective arrival.
func TestStitchedScheduleProperty(t *testing.T) {
	a := arch.ZedBoard()
	for seed := int64(0); seed < 50; seed++ {
		tr := genTrace(t, TraceConfig{Jobs: 4, TasksPerJob: 8, Seed: seed, MeanGap: 700, CommMax: 40})
		res := runTrace(t, Config{Arch: a, Seed: seed, ModuleReuse: seed%2 == 0}, tr)
		if res.Schedule == nil {
			t.Fatalf("seed %d: no schedule", seed)
		}
		if errs := schedule.Check(res.Schedule); len(errs) > 0 {
			t.Errorf("seed %d: stitched schedule invalid: %v", seed, errs[0])
			continue
		}
		for v, r := range res.Release {
			if res.Schedule.Tasks[v].Start < r {
				t.Errorf("seed %d: task %d starts at %d before its arrival %d",
					seed, v, res.Schedule.Tasks[v].Start, r)
			}
		}
		ex, err := sim.ExecuteFrom(res.Schedule, res.Release)
		if err != nil {
			t.Errorf("seed %d: replay failed: %v", seed, err)
			continue
		}
		if ex.Makespan > res.Schedule.Makespan {
			t.Errorf("seed %d: executed makespan %d exceeds planned %d",
				seed, ex.Makespan, res.Schedule.Makespan)
		}
		if len(res.Epochs) == 0 {
			t.Errorf("seed %d: no epochs recorded", seed)
		}
	}
}

// TestDeterminism pins the epoch-sequence contract: a fixed (trace, config)
// reproduces the stitched schedule and epoch records bit-identically across
// runs, PA is invariant under the worker count, and PA-R is reproducible at
// a fixed worker count.
func TestDeterminism(t *testing.T) {
	a := arch.ZedBoard()
	tc := TraceConfig{Jobs: 5, TasksPerJob: 10, Seed: 42, MeanGap: 600, CommMax: 25}

	base := runTrace(t, Config{Arch: a, Seed: 7}, genTrace(t, tc))
	for run := 0; run < 2; run++ {
		r := runTrace(t, Config{Arch: a, Seed: 7}, genTrace(t, tc))
		if !reflect.DeepEqual(r.Schedule, base.Schedule) {
			t.Fatalf("run %d: stitched schedule differs from the first run", run)
		}
		if !reflect.DeepEqual(stripTimes(r.Epochs), stripTimes(base.Epochs)) {
			t.Fatalf("run %d: epoch records differ from the first run", run)
		}
	}
	for _, w := range []int{1, 2, 4} {
		r := runTrace(t, Config{Arch: a, Seed: 7, Workers: w}, genTrace(t, tc))
		if !reflect.DeepEqual(r.Schedule, base.Schedule) {
			t.Fatalf("pa with %d workers produced a different stitched schedule", w)
		}
	}

	par := Config{Arch: a, Solver: "par", Seed: 7, Workers: 3, MaxIterations: 6}
	p1 := runTrace(t, par, genTrace(t, tc))
	p2 := runTrace(t, par, genTrace(t, tc))
	if !reflect.DeepEqual(p1.Schedule, p2.Schedule) {
		t.Fatal("par at fixed workers is not reproducible across runs")
	}
	if !reflect.DeepEqual(stripTimes(p1.Epochs), stripTimes(p2.Epochs)) {
		t.Fatal("par epoch records are not reproducible across runs")
	}
}

// TestEmptyAndSingleJob covers the degenerate traces: no jobs at all, and
// one job arriving at t=0, which must match the plain offline solve.
func TestEmptyAndSingleJob(t *testing.T) {
	a := arch.ZedBoard()
	e, err := New(Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule != nil || len(res.Epochs) != 0 {
		t.Fatalf("empty trace produced a schedule: %+v", res)
	}

	tr := genTrace(t, TraceConfig{Jobs: 1, TasksPerJob: 12, Seed: 3})
	res = runTrace(t, Config{Arch: a}, tr)
	if len(res.Epochs) != 1 {
		t.Fatalf("single job planned in %d epochs, want 1", len(res.Epochs))
	}
	sv, err := solve.Get("pa")
	if err != nil {
		t.Fatal(err)
	}
	off, err := sv.Solve(&solve.Request{Graph: tr.Jobs[0].Graph, Arch: a,
		Options: solve.Options{SkipFloorplan: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan != off.Schedule.Makespan {
		t.Fatalf("single job at t=0: online makespan %d, offline %d",
			res.Schedule.Makespan, off.Schedule.Makespan)
	}
}

// TestLateArrivalFault arms the counted late-arrival fault and checks the
// delayed jobs are re-planned at their delayed instants with the stitched
// schedule still valid end to end.
func TestLateArrivalFault(t *testing.T) {
	a := arch.ZedBoard()
	fa := faultinject.New()
	fa.ForceLateArrival(2, 5000)
	tr := genTrace(t, TraceConfig{Jobs: 4, TasksPerJob: 8, Seed: 11, MeanGap: 500})

	e, err := New(Config{Arch: a, Faults: fa})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	res, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.LateArrivals != 2 || fa.Fired(faultinject.FaultLateArrival) != 2 {
		t.Fatalf("late arrivals: result %d, fired %d, want 2 and 2",
			res.LateArrivals, fa.Fired(faultinject.FaultLateArrival))
	}
	if errs := schedule.Check(res.Schedule); len(errs) > 0 {
		t.Fatalf("stitched schedule invalid after late arrivals: %v", errs[0])
	}
	if _, err := sim.ExecuteFrom(res.Schedule, res.Release); err != nil {
		t.Fatalf("replay failed after late arrivals: %v", err)
	}
	// The first two submissions were delayed by 5000; their effective
	// arrivals must show it.
	delayed := 0
	for _, j := range res.Jobs {
		for _, orig := range tr.Jobs {
			if j.Name == orig.Name && j.Arrival == orig.Arrival+5000 {
				delayed++
			}
		}
	}
	if delayed != 2 {
		t.Fatalf("found %d jobs delayed by the fault, want 2", delayed)
	}
}

// TestDeadlineScoring checks deadline misses are detected from the stitched
// completion times.
func TestDeadlineScoring(t *testing.T) {
	a := arch.ZedBoard()
	tr := genTrace(t, TraceConfig{Jobs: 3, TasksPerJob: 8, Seed: 5, MeanGap: 400})
	tr.Jobs[0].Deadline = 1       // impossible
	tr.Jobs[1].Deadline = 1 << 40 // trivially met
	res := runTrace(t, Config{Arch: a}, tr)
	if !reflect.DeepEqual(res.MissedDeadlines, []int{0}) {
		t.Fatalf("missed deadlines %v, want [0]", res.MissedDeadlines)
	}
	if res.JobEnds[0] <= 1 || res.JobEnds[1] <= 0 {
		t.Fatalf("implausible job completion times %v", res.JobEnds)
	}
}

// TestNoPrefetchExposesMoreStall pins the prefetch benefit on a committed
// trace: with prefetching disabled no load is issued early, and the total
// exposed reconfiguration latency strictly grows.
func TestNoPrefetchExposesMoreStall(t *testing.T) {
	a := arch.ZedBoard()
	tc := TraceConfig{Jobs: 4, TasksPerJob: 10, Seed: 2, MeanGap: 900, CommMax: 30}
	with := runTrace(t, Config{Arch: a}, genTrace(t, tc))
	without := runTrace(t, Config{Arch: a, DisablePrefetch: true}, genTrace(t, tc))

	var issuedWith, stallWith, stallWithout, issuedWithout int64
	for _, es := range with.Epochs {
		issuedWith += int64(es.PrefetchIssued)
		stallWith += es.Stall
	}
	for _, es := range without.Epochs {
		issuedWithout += int64(es.PrefetchIssued)
		stallWithout += es.Stall
	}
	if issuedWithout != 0 {
		t.Fatalf("no-prefetch run still issued %d early loads", issuedWithout)
	}
	if issuedWith == 0 {
		t.Fatal("prefetch run issued no early loads on this trace; pick a different seed")
	}
	if stallWith >= stallWithout {
		t.Fatalf("prefetching did not reduce stall: %d with vs %d without", stallWith, stallWithout)
	}
	t.Logf("prefetch: %d early loads, stall %d ticks vs %d without (hidden %d), makespan %d vs %d",
		issuedWith, stallWith, stallWithout, stallWithout-stallWith,
		with.Schedule.Makespan, without.Schedule.Makespan)
	if errs := schedule.Check(without.Schedule); len(errs) > 0 {
		t.Fatalf("no-prefetch stitched schedule invalid: %v", errs[0])
	}
	if _, err := sim.ExecuteFrom(without.Schedule, without.Release); err != nil {
		t.Fatalf("no-prefetch replay failed: %v", err)
	}
}

// TestPolishAndClairvoyant exercises the finalization extras: the polish
// pass may only improve the plan, and the clairvoyant bound is reported.
func TestPolishAndClairvoyant(t *testing.T) {
	a := arch.ZedBoard()
	tc := TraceConfig{Jobs: 4, TasksPerJob: 10, Seed: 6, MeanGap: 700}
	plain := runTrace(t, Config{Arch: a, Seed: 9}, genTrace(t, tc))
	extra := runTrace(t, Config{Arch: a, Seed: 9, PolishIterations: 6, Clairvoyant: true}, genTrace(t, tc))
	if errs := schedule.Check(extra.Schedule); len(errs) > 0 {
		t.Fatalf("polished schedule invalid: %v", errs[0])
	}
	if extra.Schedule.Makespan > plain.Schedule.Makespan {
		t.Fatalf("polish made the plan worse: %d > %d",
			extra.Schedule.Makespan, plain.Schedule.Makespan)
	}
	if extra.ClairvoyantMakespan <= 0 {
		t.Fatalf("clairvoyant makespan not computed: %d", extra.ClairvoyantMakespan)
	}
	if got := extra.Schedule.Makespan - extra.ClairvoyantMakespan; got != extra.ClairvoyantGap {
		t.Fatalf("clairvoyant gap %d inconsistent with makespans (want %d)", extra.ClairvoyantGap, got)
	}
}

// TestDegradeToRobust drives the per-epoch fallback: the exact reference
// rejects warm platform states, so every warm epoch must degrade to the
// robust ladder and still stitch a valid schedule.
func TestDegradeToRobust(t *testing.T) {
	a := arch.ZedBoard()
	tr := genTrace(t, TraceConfig{Jobs: 2, TasksPerJob: 5, Seed: 1})
	tr.Jobs[1].Arrival = 1 // mid-flight: the second epoch starts warm
	res := runTrace(t, Config{Arch: a, Solver: "exact", EpochNodes: 200000}, tr)
	if errs := schedule.Check(res.Schedule); len(errs) > 0 {
		t.Fatalf("stitched schedule invalid: %v", errs[0])
	}
	degraded := 0
	for _, es := range res.Epochs {
		if es.Degraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no epoch degraded although the exact solver rejects warm states")
	}
}

// TestEpochNodesKeepRunBudget checks an epoch node cap nests under the run
// budget instead of replacing it: cancelling the run budget mid-epoch, in
// an engine that sets EpochNodes, ends the epoch's re-plan within 100ms.
func TestEpochNodesKeepRunBudget(t *testing.T) {
	b := budget.New(budget.Options{})
	e, err := New(Config{Arch: arch.ZedBoard(), Solver: "is5", EpochNodes: 1 << 40, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitTrace(genTrace(t, TraceConfig{Jobs: 1, TasksPerJob: 400, Seed: 8})); err != nil {
		t.Fatal(err)
	}
	cancelled := make(chan time.Time, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		b.Cancel()
		cancelled <- time.Now()
	}()
	_ = e.Run() // the cancel may stop the run or degrade its epoch; both return
	returned := time.Now()
	if lag := returned.Sub(<-cancelled); lag > 100*time.Millisecond {
		t.Fatalf("epoch re-plan returned %v after Cancel, want within 100ms", lag)
	}
}

// TestRunStopsOnCancelledBudget checks the epoch loop polls the run budget.
func TestRunStopsOnCancelledBudget(t *testing.T) {
	a := arch.ZedBoard()
	b := budget.New(budget.Options{})
	b.Cancel()
	e, err := New(Config{Arch: a, Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitTrace(genTrace(t, TraceConfig{Jobs: 2, TasksPerJob: 6, Seed: 8})); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "stopped") {
		t.Fatalf("cancelled budget did not stop the run: %v", err)
	}
	if e.Plan() != nil {
		t.Fatal("cancelled run still committed a plan")
	}
}

// TestOnlineMetrics checks the online.* counter taxonomy lands in obs.
func TestOnlineMetrics(t *testing.T) {
	a := arch.ZedBoard()
	tr := obs.New()
	trace := genTrace(t, TraceConfig{Jobs: 3, TasksPerJob: 8, Seed: 4, MeanGap: 500})
	e, err := New(Config{Arch: a, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitTrace(trace); err != nil {
		t.Fatal(err)
	}
	res, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if got := snap.Counters["online.epochs"]; got != int64(len(res.Epochs)) {
		t.Fatalf("online.epochs = %d, want %d", got, len(res.Epochs))
	}
	if _, ok := snap.Histograms["online.replan_us"]; !ok {
		t.Fatal("online.replan_us histogram missing")
	}
	var issued int64
	for _, es := range res.Epochs {
		issued += int64(es.PrefetchIssued)
	}
	if got := snap.Counters["online.prefetch_issued"]; got != issued {
		t.Fatalf("online.prefetch_issued = %d, want %d", got, issued)
	}
}

// TestIncrementalRuns checks Run can be called repeatedly as jobs keep
// arriving: late submissions in the committed past are clamped to the
// commit boundary and the stitched schedule stays valid throughout.
func TestIncrementalRuns(t *testing.T) {
	a := arch.ZedBoard()
	tr := genTrace(t, TraceConfig{Jobs: 4, TasksPerJob: 7, Seed: 13, MeanGap: 600})
	e, err := New(Config{Arch: a})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatalf("run after job %d: %v", i, err)
		}
		if errs := schedule.Check(e.Plan()); len(errs) > 0 {
			t.Fatalf("after job %d the stitched schedule is invalid: %v", i, errs[0])
		}
	}
	res, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(tr.Jobs) {
		t.Fatalf("planned %d jobs, want %d", len(res.Jobs), len(tr.Jobs))
	}
	// Jobs arrived one Run at a time, each clamped forward: epochs must be
	// in nondecreasing commit order.
	for i := 1; i < len(res.Epochs); i++ {
		if res.Epochs[i].Commit < res.Epochs[i-1].Commit {
			t.Fatalf("commit boundaries regressed: %d after %d",
				res.Epochs[i].Commit, res.Epochs[i-1].Commit)
		}
	}
	if _, err := sim.ExecuteFrom(res.Schedule, res.Release); err != nil {
		t.Fatalf("replay failed: %v", err)
	}
}
