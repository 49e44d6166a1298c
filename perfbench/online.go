package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"resched/internal/arch"
	"resched/internal/obs"
	"resched/internal/online"
	"resched/internal/schedule"
)

// The online-long workload is one long rolling-horizon session: 256 jobs of
// 10 tasks arriving with a mean gap of 8000 ticks (sustainable, so the live
// window stays bounded), re-planned by PA on one worker. The harness drives
// it one arrival at a time — Submit, then Run — as a session client would.
// The seed draws onlineTraces such traces; the run cycles through them,
// one whole session each, until its seconds are spent. Every metric weighs
// the traces the same, so how fast one trace happens to be moves the result
// a third as much as it would alone.
var onlineTrace = online.TraceConfig{Jobs: 256, TasksPerJob: 10, MeanGap: 8000, CommMax: 30}

const onlineTraces = 3

// onlineSLO is the latency limit of slo_ok_share on online-long: an
// arrival counts when its Run returns within it and the session's stitched
// schedule verifies.
const onlineSLO = 100 * time.Millisecond

func genOnline(seed int64) ([]*online.Trace, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*online.Trace, onlineTraces)
	for k := range out {
		tc := onlineTrace
		tc.Seed = rng.Int63()
		t, err := online.GenTrace(tc)
		if err != nil {
			return nil, err
		}
		out[k] = t
	}
	return out, nil
}

// onSession is one driven session's outcome.
type onSession struct {
	trace  int             // index of the driven trace
	runs   []time.Duration // per-arrival Run latency
	result *online.Result
	stall  int64 // exposed reconfiguration stall of the stitched schedule
	// verified is set when the stitched schedule passed every check.
	verified bool
	// Layer probes, filled on traced sessions only.
	check, freeze []float64
	simUS         float64
}

func runOnline(cfg config) (*report, error) {
	traces, setup, err := measureSetup(15, func() ([]*online.Trace, error) { return genOnline(cfg.seed) })
	if err != nil {
		return nil, err
	}
	a := arch.ZedBoard()
	rep := newReport()
	tr := obs.New()
	var plain, traced []*onSession
	var elapsed time.Duration
	budget := time.Duration(cfg.seconds) * time.Second
	// Every trace needs one untraced session, and on a traced run one traced
	// session too. A traced run pairs an untraced and a traced session of
	// each trace: the traced ones give the layer numbers, the pair gives the
	// tracing overhead.
	complete := func() bool {
		for k := range traces {
			if countTrace(plain, k) == 0 || (cfg.traced && countTrace(traced, k) == 0) {
				return false
			}
		}
		return true
	}
	var sessErr error
	for i := 0; !complete() || elapsed < budget; i++ {
		k := i % len(traces)
		var sessTrace *obs.Trace
		if cfg.traced {
			k = i / 2 % len(traces)
			if i%2 == 1 {
				sessTrace = tr
			}
		}
		// Each session starts from a collected heap, so its peak RSS does
		// not carry the previous session's garbage.
		runtime.GC()
		begin := time.Now()
		s, err := onlineSession(traces[k], a, sessTrace, rep)
		elapsed += time.Since(begin)
		if err != nil {
			// A failed Run leaves the session without a plan to continue
			// from; the failure is counted and the run ends.
			rep.fail(false, err)
			sessErr = err
			break
		}
		s.trace = k
		if sessTrace != nil {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	if !complete() {
		return nil, fmt.Errorf("no complete session of every trace: %w", sessErr)
	}
	// A session is deterministic: every repetition of a trace must stitch
	// the same plan.
	all := append(append([]*onSession(nil), plain...), traced...)
	first := map[int]*onSession{}
	for _, s := range all {
		f, ok := first[s.trace]
		if !ok {
			first[s.trace] = s
			continue
		}
		if s.result.Schedule.Makespan != f.result.Schedule.Makespan || s.stall != f.stall {
			rep.fail(true, fmt.Errorf("repeated session of trace %d stitched a different plan: makespan %d vs %d",
				s.trace, s.result.Schedule.Makespan, f.result.Schedule.Makespan))
		}
	}

	if cfg.traced {
		if err := writeTraces(cfg, map[string]*obs.Trace{"online": tr}); err != nil {
			return nil, err
		}
		onlineLayers(rep, plain, traced, tr.Snapshot())
		return rep, nil
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	var ok int
	for _, l := range runLatencies(plain) {
		if l <= ms(onlineSLO) {
			ok++
		}
	}
	var logMakespan float64
	for k := range traces {
		logMakespan += math.Log(float64(first[k].result.Schedule.Makespan))
	}
	rep.values["setup_s"] = setup
	rep.values["peak_rss_mb"] = rss
	rep.values["latency_p50_ms"] = traceQuantile(plain, 0.50)
	rep.values["latency_p90_ms"] = traceQuantile(plain, 0.90)
	rep.values["makespan_geomean"] = math.Exp(logMakespan / float64(len(traces)))
	rep.values["slo_ok_share"] = ratio(float64(ok), float64(rep.attempted))
	return rep, nil
}

func countTrace(sessions []*onSession, k int) int {
	n := 0
	for _, s := range sessions {
		if s.trace == k {
			n++
		}
	}
	return n
}

// traceQuantile is the geometric mean over the traces of the q-th quantile
// of each trace's pooled Run latencies (ms).
func traceQuantile(sessions []*onSession, q float64) float64 {
	var logSum float64
	for k := 0; k < onlineTraces; k++ {
		var of []*onSession
		for _, s := range sessions {
			if s.trace == k {
				of = append(of, s)
			}
		}
		logSum += math.Log(quantile(runLatencies(of), q))
	}
	return math.Exp(logSum / onlineTraces)
}

// runLatencies pools the per-arrival Run latencies (ms) of the sessions.
// A session whose stitched schedule did not verify contributes none.
func runLatencies(sessions []*onSession) []float64 {
	var lat []float64
	for _, s := range sessions {
		if !s.verified {
			continue
		}
		for _, d := range s.runs {
			lat = append(lat, ms(d))
		}
	}
	return lat
}

// onlineSession replays the trace through a fresh engine, one arrival per
// Run, and verifies the stitched result. With a trace it also times
// schedule.Check and schedule.Freeze on the stitched plan at every commit
// boundary.
func onlineSession(trace *online.Trace, a *arch.Architecture, tr *obs.Trace, rep *report) (*onSession, error) {
	eng, err := online.New(online.Config{Arch: a, Solver: "pa", Workers: 1, Trace: tr})
	if err != nil {
		return nil, err
	}
	s := &onSession{}
	for _, job := range trace.Jobs {
		job.Graph = job.Graph.Clone() // the engine owns submitted graphs
		rep.attempted++
		if err := eng.Submit(job); err != nil {
			return nil, fmt.Errorf("submitting %s: %w", job.Name, err)
		}
		sp := tr.Start("bench.run", obs.Str("job", job.Name))
		begin := time.Now()
		err := eng.Run()
		s.runs = append(s.runs, time.Since(begin))
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("run after %s: %w", job.Name, err)
		}
		if tr != nil {
			probeHorizon(eng, tr, s, rep)
		}
	}
	res, err := eng.Finalize()
	if err != nil {
		return nil, fmt.Errorf("finalize: %w", err)
	}
	s.result = res
	s.stall = stitchedStall(res)
	if err := verifyOnline(res, s); err != nil {
		rep.fail(true, err)
	} else {
		s.verified = true
	}
	return s, nil
}

// probeHorizon times the two history-sized calls every epoch makes on the
// stitched plan: the validity check and the freeze at the boundary.
func probeHorizon(eng *online.Engine, tr *obs.Trace, s *onSession, rep *report) {
	plan := eng.Plan()
	sp := tr.Start("bench.check")
	begin := time.Now()
	errs := schedule.Check(plan)
	s.check = append(s.check, us(time.Since(begin)))
	sp.End()
	if len(errs) > 0 {
		rep.fail(true, fmt.Errorf("stitched plan invalid at %d: %v", eng.Commit(), errs[0]))
	}
	sp = tr.Start("bench.freeze")
	begin = time.Now()
	_, err := schedule.Freeze(plan, eng.Commit())
	s.freeze = append(s.freeze, us(time.Since(begin)))
	sp.End()
	if err != nil {
		rep.fail(true, fmt.Errorf("freeze at %d: %w", eng.Commit(), err))
	}
}

// verifyOnline checks the stitched schedule against the engine's last
// epoch report, replaying it under the arrival floors (Result.Release).
func verifyOnline(res *online.Result, s *onSession) error {
	if res.Schedule == nil || len(res.Epochs) == 0 {
		return fmt.Errorf("session produced no schedule")
	}
	replay, err := verifySchedule(res.Schedule, res.Epochs[len(res.Epochs)-1].Makespan, res.Release)
	s.simUS = us(replay)
	return err
}

// onlineLayers turns a traced run into the per-layer metrics.
func onlineLayers(rep *report, plain, traced []*onSession, snap obs.Snapshot) {
	v := rep.values
	var replan, tracedRuns, plainRuns time.Duration
	var nRuns, nPlain int
	var tail, frozen, issued, hits, degraded, epochs float64
	var check, freeze, simUS []float64
	var growth []float64
	for _, s := range traced {
		eps := s.result.Epochs
		for _, ep := range eps {
			replan += ep.ReplanTime
			tail += float64(ep.TailTasks)
			frozen += float64(ep.FrozenTasks)
			issued += float64(ep.PrefetchIssued)
			hits += float64(ep.PrefetchHits)
			if ep.Degraded {
				degraded++
			}
		}
		epochs += float64(len(eps))
		growth = append(growth, replanGrowth(eps))
		for _, d := range s.runs {
			tracedRuns += d
			nRuns++
		}
		check = append(check, s.check...)
		freeze = append(freeze, s.freeze...)
		simUS = append(simUS, s.simUS)
	}
	for _, s := range plain {
		for _, d := range s.runs {
			plainRuns += d
			nPlain++
		}
	}
	n := float64(len(traced))
	v["online.replan_ms"] = ratio(ms(replan), epochs)
	v["online.tail_tasks"] = ratio(tail, epochs)
	v["online.frozen_tasks"] = ratio(frozen, epochs)
	v["online.prefetch_hit_ratio"] = ratio(hits, issued)
	v["online.degraded_epochs"] = ratio(degraded, n) // per session
	v["online.replan_growth"] = mean(growth)
	var stall float64
	for _, s := range traced {
		stall += float64(s.stall)
	}
	v["online_stall"] = ratio(stall, n)
	v["schedule.check_us"] = mean(check)
	v["schedule.freeze_us"] = mean(freeze)
	v["sim.execute_us"] = mean(simUS)
	v["solve.pa.latency_us"] = histMean(snap, "solve.pa.latency_us")
	// Re-plans skip floorplanning, so the PA solve is all scheduling.
	v["sched.scheduling_ms"] = v["solve.pa.latency_us"] / 1e3
	self := selfTimes(snap)
	for ph := 1; ph <= 7; ph++ {
		name := fmt.Sprintf("pa.phase%d", ph)
		v[name] = ratio(ms(selfTimeWithPrefix(self, name+".")), epochs)
	}
	v["latency_p99_ms"] = traceQuantile(plain, 0.99)
	v["unattributed_share"] = 1 - ratio(replan.Seconds(), tracedRuns.Seconds())
	v["trace.overhead_share"] = ratio(ratio(tracedRuns.Seconds(), float64(nRuns)),
		ratio(plainRuns.Seconds(), float64(nPlain))) - 1
}

// replanGrowth is the mean re-plan time of the last quarter of the epochs
// over that of the first quarter: 1 when cost does not grow with history.
func replanGrowth(eps []online.EpochStats) float64 {
	q := len(eps) / 4
	if q == 0 {
		return 1
	}
	var first, last time.Duration
	for i := 0; i < q; i++ {
		first += eps[i].ReplanTime
		last += eps[len(eps)-1-i].ReplanTime
	}
	return ratio(last.Seconds(), first.Seconds())
}

// stitchedStall is the exposed reconfiguration stall of the final stitched
// schedule: for every reconfiguration that loads a task, how far it ends
// after the task's data is ready (arrival floor, predecessors' ends plus
// communication). Unlike the per-epoch EpochStats.Stall, which re-counts a
// tail each time it is re-planned, every load counts once.
func stitchedStall(res *online.Result) int64 {
	s := res.Schedule
	var stall int64
	for _, rc := range s.Reconfs {
		if rc.OutTask < 0 {
			continue
		}
		ready := res.Release[rc.OutTask]
		for _, p := range s.Graph.Pred(rc.OutTask) {
			if f := s.Tasks[p].End + s.Graph.EdgeComm(p, rc.OutTask); f > ready {
				ready = f
			}
		}
		if rc.End > ready {
			stall += rc.End - ready
		}
	}
	return stall
}
