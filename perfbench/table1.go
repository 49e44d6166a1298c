package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/cpm"
	"resched/internal/floorplan"
	"resched/internal/obs"
	"resched/internal/resources"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

// The table1 workload is the paper's own evaluation (§VII, Table I): the
// graphs of benchgen.Suite(2016), 10 groups of 10 graphs with 10 to 100
// tasks, solved in-process, closed loop, on one goroutine, by PA, PA-R and
// IS-1/IS-5. Every round solves one graph per group: slot k is the graph
// k mod 10 of every group. A solver running n rounds solves slots 0..n-1,
// a fixed multiset, and the seed draws the order it visits them in, so its
// round 0 is a seeded draw of one graph per group. Like serve-mix, seeds
// differ in order and in the rounds makespan_geomean covers, not in how
// much or which solving a run holds.

// t1Solver is one Table I column.
type t1Solver struct {
	name string
	opts solve.Options
	// share is the fraction of the run's seconds given to this solver. IS-5
	// costs about 30× PA per graph and gets most of the time so that it,
	// too, solves several rounds.
	share float64
	// roundSeconds is what one round (one graph per group) of this solver
	// costs on the reference machine (2 vCPUs, Intel Xeon), over seeds.
	roundSeconds float64
}

var t1Solvers = []t1Solver{
	{name: "pa", share: 0.15, roundSeconds: 0.196},
	{name: "par", opts: solve.Options{MaxIterations: 25, Workers: 1, Seed: 1}, share: 0.15, roundSeconds: 0.47},
	{name: "is1", opts: solve.Options{ModuleReuse: true}, share: 0.15, roundSeconds: 0.253},
	{name: "is5", opts: solve.Options{ModuleReuse: true}, share: 0.55, roundSeconds: 5.5},
}

// rounds is how many rounds the solver runs in a run of the given length:
// its share of the seconds on the reference machine, and at least
// t1MinRounds. The count depends on the run's length only, not on how fast
// the machine happens to be, so the same seed always measures the same
// graphs and a faster program shows as a shorter time for the same work.
func (s t1Solver) rounds(seconds int) int {
	return max(t1MinRounds, int(math.Round(s.share*float64(seconds)/s.roundSeconds)))
}

// t1SLO is the latency limit of slo_ok_share on table1: a solve counts when
// it returns a verified schedule within it.
const t1SLO = time.Second

// t1MinRounds is the number of rounds every solver completes however short
// the run; makespan_geomean is taken over exactly these rounds, so it is a
// pure function of the seed whatever the run's length.
const t1MinRounds = 2

// t1Inputs is the generated workload: the suite grouped by task count and,
// per solver, the seeded order of its slots (visit[solver][round]).
type t1Inputs struct {
	groups [][]*taskgraph.Graph
	visit  [][]int
}

func (in *t1Inputs) graph(slot, group int) *taskgraph.Graph {
	g := in.groups[group]
	return g[slot%len(g)]
}

func genTable1(seed int64, seconds int) (*t1Inputs, error) {
	suite, err := benchgen.Suite(2016)
	if err != nil {
		return nil, err
	}
	in := &t1Inputs{}
	byGroup := map[int]int{}
	for _, e := range suite {
		gi, ok := byGroup[e.Group]
		if !ok {
			gi = len(in.groups)
			byGroup[e.Group] = gi
			in.groups = append(in.groups, nil)
		}
		in.groups[gi] = append(in.groups[gi], e.Graph)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range t1Solvers {
		in.visit = append(in.visit, rng.Perm(s.rounds(seconds)))
	}
	return in, nil
}

// t1Tally accumulates one solver's measurements.
type t1Tally struct {
	rounds, solved int
	withinSLO      int
	busy           time.Duration // untraced solve time
	latency        []float64     // ms of each untraced solve
	traced         time.Duration // traced solve time (trace runs only)
	attributed     time.Duration // Result scheduling + floorplanning time of the traced solves
	results        []*solve.Result
}

func runTable1(cfg config) (*report, error) {
	in, setup, err := measureSetup(15, func() (*t1Inputs, error) { return genTable1(cfg.seed, cfg.seconds) })
	if err != nil {
		return nil, err
	}
	a := arch.ZedBoard()
	rep := newReport()
	tallies := make([]*t1Tally, len(t1Solvers))
	traces := map[string]*obs.Trace{}
	for i, s := range t1Solvers {
		tallies[i] = &t1Tally{}
		if cfg.traced {
			traces[s.name] = obs.New()
		}
	}
	probes := &t1Probes{}
	var logSum float64
	var logN int

	// Solvers take turns one round at a time, so a disturbance on the
	// machine spreads over all of them instead of hitting one column.
	for {
		progressed := false
		for i, s := range t1Solvers {
			t := tallies[i]
			if t.rounds >= s.rounds(cfg.seconds) {
				continue
			}
			progressed = true
			sv, err := solve.Get(s.name)
			if err != nil {
				return nil, err
			}
			// Each round starts from a collected heap, so the peak RSS does
			// not depend on how much garbage earlier rounds left behind.
			runtime.GC()
			slot := in.visit[i][t.rounds]
			for g := range in.groups {
				graph := in.graph(slot, g)
				res, _, err := t1Solve(sv, graph, a, s.opts, nil, t, rep)
				if err != nil {
					continue
				}
				if t.rounds < t1MinRounds {
					logSum += math.Log(float64(res.Makespan))
					logN++
				}
				if cfg.traced {
					t1Traced(sv, s, graph, a, traces[s.name], t, rep, probes)
				}
			}
			t.rounds++
		}
		if !progressed {
			break
		}
	}
	for i, s := range t1Solvers {
		t := tallies[i]
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d rounds, %d solved in %.2fs (traced %.2fs), p50 %.1f ms, p90 %.1f ms\n",
			s.name, t.rounds, t.solved, t.busy.Seconds(), t.traced.Seconds(),
			quantile(t.latency, 0.5), quantile(t.latency, 0.9))
	}
	if cfg.traced {
		if err := writeTraces(cfg, traces); err != nil {
			return nil, err
		}
		t1Layers(rep, tallies, traces, probes)
		return rep, nil
	}

	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	rep.values["setup_s"] = setup
	rep.values["peak_rss_mb"] = rss
	rep.values["latency_p50_ms"] = t1Latency(tallies, 0.50)
	rep.values["latency_p90_ms"] = t1Latency(tallies, 0.90)
	var ok int
	for _, t := range tallies {
		ok += t.withinSLO
	}
	rep.values["slo_ok_share"] = ratio(float64(ok), float64(rep.attempted))
	rep.values["makespan_geomean"] = math.Exp(logSum / math.Max(1, float64(logN)))
	return rep, nil
}

// t1Latency is the geometric mean over the solvers of each one's q-th
// quantile of untraced solve latency: every Table I column weighs the same
// however fast it is.
func t1Latency(tallies []*t1Tally, q float64) float64 {
	var logSum float64
	for _, t := range tallies {
		logSum += math.Log(quantile(t.latency, q))
	}
	return math.Exp(logSum / float64(len(tallies)))
}

// t1Solve runs and verifies one solve and returns the result with the time
// its verification replay took. tr, when non-nil, makes it the traced
// repetition: its time goes to the traced tally only.
func t1Solve(sv solve.Solver, g *taskgraph.Graph, a *arch.Architecture, opts solve.Options,
	tr *obs.Trace, t *t1Tally, rep *report) (*solve.Result, time.Duration, error) {
	opts.Trace = tr
	req := &solve.Request{Graph: g, Arch: a, Options: opts}
	sp := tr.Start("bench.solve", obs.Str("solver", sv.Name()), obs.Int("tasks", int64(g.N())))
	begin := time.Now()
	res, err := sv.Solve(req)
	elapsed := time.Since(begin)
	sp.End()
	rep.attempted++
	if tr != nil {
		t.traced += elapsed
	} else {
		t.busy += elapsed
	}
	var replay time.Duration
	if err == nil {
		if res.Schedule == nil || res.Schedule.Graph != g {
			err = fmt.Errorf("no schedule of the requested graph")
		} else {
			replay, err = verifySchedule(res.Schedule, res.Makespan, nil)
		}
	}
	if err != nil {
		rep.fail(res != nil, fmt.Errorf("%s on %s: %w", sv.Name(), g.Name, err))
		return nil, 0, err
	}
	if tr == nil {
		t.solved++
		t.latency = append(t.latency, ms(elapsed))
		if elapsed <= t1SLO {
			t.withinSLO++
		}
	} else {
		t.attributed += res.SchedulingTime + res.FloorplanTime
		t.results = append(t.results, res)
	}
	return res, replay, nil
}

// t1Probes accumulates the layer calls the harness makes itself on the
// traced run's outputs.
type t1Probes struct {
	cpm, sim, replay, enumerate []float64
}

// t1Traced repeats one solve with tracing on and probes the layers with
// public entry points on its output.
func t1Traced(sv solve.Solver, s t1Solver, g *taskgraph.Graph, a *arch.Architecture,
	tr *obs.Trace, t *t1Tally, rep *report, p *t1Probes) {
	res, replay, err := t1Solve(sv, g, a, s.opts, tr, t, rep)
	if err != nil {
		return
	}
	p.sim = append(p.sim, us(replay))
	sch := res.Schedule

	dur := make([]int64, g.N())
	for i := range dur {
		dur[i] = sch.Impl(i).Time
	}
	sp := tr.Start("bench.cpm")
	begin := time.Now()
	_, err = cpm.ComputeGraph(g, dur)
	p.cpm = append(p.cpm, us(time.Since(begin)))
	sp.End()
	if err != nil {
		rep.fail(false, fmt.Errorf("cpm on %s: %w", g.Name, err))
	}

	if s.name != "pa" || len(sch.Regions) == 0 {
		return
	}
	regions := make([]resources.Vector, len(sch.Regions))
	for i, r := range sch.Regions {
		regions[i] = r.Res
	}
	sp = tr.Start("bench.floorplan_replay")
	begin = time.Now()
	var fpOpts floorplan.Options // the defaults PA's phase 8 runs with
	fp, err := floorplan.Solve(a.Fabric, regions, fpOpts)
	p.replay = append(p.replay, ms(time.Since(begin)))
	sp.End()
	if err == nil && !fp.Feasible {
		err = fmt.Errorf("final regions do not floorplan")
	}
	if err != nil {
		rep.fail(true, fmt.Errorf("floorplan replay on %s: %w", g.Name, err))
	}
	for _, r := range regions {
		sp = tr.Start("bench.floorplan_enumerate")
		begin = time.Now()
		floorplan.Enumerate(a.Fabric, r)
		p.enumerate = append(p.enumerate, us(time.Since(begin)))
		sp.End()
	}
}

// t1Layers turns the traced run into the per-layer metrics.
func t1Layers(rep *report, tallies []*t1Tally, traces map[string]*obs.Trace, p *t1Probes) {
	v := rep.values
	var busy, traced, attributed time.Duration
	for _, t := range tallies {
		busy += t.busy
		traced += t.traced
		attributed += t.attributed
	}
	v["trace.overhead_share"] = ratio(traced.Seconds(), busy.Seconds()) - 1
	v["latency_p99_ms"] = t1Latency(tallies, 0.99)
	v["unattributed_share"] = 1 - ratio(attributed.Seconds(), traced.Seconds())

	pa := tallies[0].results
	paSnap := traces["pa"].Snapshot()
	paSelf := selfTimes(paSnap)
	n := float64(len(pa))
	var schedT, fpT time.Duration
	var attempts int
	for _, r := range pa {
		schedT += r.SchedulingTime
		fpT += r.FloorplanTime
		attempts += r.Iterations
	}
	v["sched.scheduling_ms"] = ratio(ms(schedT), n)
	v["sched.attempts"] = ratio(float64(attempts), n)
	for ph := 1; ph <= 7; ph++ {
		name := fmt.Sprintf("pa.phase%d", ph)
		v[name] = ratio(ms(selfTimeWithPrefix(paSelf, name+".")), n)
	}
	v["floorplan.solve_ms"] = ratio(ms(fpT), n)
	calls := float64(paSnap.Counters["floorplan.calls"])
	v["floorplan.calls"] = ratio(calls, n)
	v["floorplan.nodes"] = ratio(float64(paSnap.Counters["floorplan.nodes"]), n)
	v["floorplan.feasible_ratio"] = ratio(float64(paSnap.Counters["floorplan.feasible"]), calls)
	v["floorplan.replay_ms"] = mean(p.replay)
	v["floorplan.enumerate_us"] = mean(p.enumerate)
	v["cpm.compute_us"] = mean(p.cpm)
	v["sim.execute_us"] = mean(p.sim)
	reportLargestPALayer(paSelf)

	par := tallies[1].results
	var iters, fcalls, discarded, improvements float64
	for _, r := range par {
		iters += float64(r.Iterations)
		if r.Search != nil {
			fcalls += float64(r.Search.FloorplanCalls)
			discarded += float64(r.Search.Discarded)
			improvements += float64(r.Search.Improvements)
		}
	}
	np := float64(len(par))
	v["par.iterations"] = ratio(iters, np)
	v["par.floorplan_calls"] = ratio(fcalls, np)
	v["par.discarded"] = ratio(discarded, np)
	v["par.improvements"] = ratio(improvements, np)
	v["par.useful_ratio"] = ratio(improvements, iters)

	var windows, nodes float64
	var iskSched, iskFP time.Duration
	isk := append(append([]*solve.Result(nil), tallies[2].results...), tallies[3].results...)
	for _, r := range isk {
		if r.Window != nil {
			windows += float64(r.Window.Windows)
			nodes += float64(r.Window.Nodes)
		}
		iskSched += r.SchedulingTime
		iskFP += r.FloorplanTime
	}
	ni := float64(len(isk))
	v["isk.windows"] = ratio(windows, ni)
	v["isk.nodes"] = ratio(nodes, ni)
	v["isk.nodes_per_window"] = ratio(nodes, windows)
	v["isk.scheduling_ms"] = ratio(ms(iskSched), ni)
	v["isk.floorplan_ms"] = ratio(ms(iskFP), ni)

	for _, s := range t1Solvers {
		v["solve."+s.name+".latency_us"] = histMean(traces[s.name].Snapshot(), "solve."+s.name+".latency_us")
	}
}

// reportLargestPALayer states on standard error which PA layer had the
// largest self-time, the check the benchmark's acceptance asks for.
func reportLargestPALayer(self map[string]time.Duration) {
	var buf bytes.Buffer
	best, bestName := time.Duration(-1), ""
	for _, name := range []string{"pa.phase1.", "pa.phase2.", "pa.phase3.", "pa.phase4.",
		"pa.phase5.", "pa.phase6.", "pa.phase7.", "floorplan.solve"} {
		d := selfTimeWithPrefix(self, name)
		fmt.Fprintf(&buf, " %s=%.1fms", name, ms(d))
		if d > best {
			best, bestName = d, name
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: pa layer self-times:%s; largest %s\n", buf.String(), bestName)
}
