package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/obs"
	"resched/internal/schedcache"
	"resched/internal/schedule"
	"resched/internal/serve"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

// The serve-mix workload is independent clients of the daemon: a paschedd
// process built from the tree, run with its default flags (2 workers, a
// 256-entry schedule cache), receives an open loop of seeded Poisson
// arrivals at a fixed rate over no more connections than the machine has
// CPUs. Bodies are drawn Zipf over a pool of 10–60-task graphs larger than
// the cache, a fifth of them near-miss perturbations, with a 70/20/10
// robust/pa/par solver mix, every one asking for the schedule.
//
// The rate is a quarter of the closed-loop capacity --capacity measured for
// this mix (81 req/s on 2 vCPUs). At half capacity one worker stuck on a
// slow floorplan search leaves the other at full load, and the p50 and p99
// then depend on how many such bursts a window happens to hold; and the
// busier the workers, the more queueing magnifies a slower machine into
// longer waits.
const (
	servePool     = 2000 // distinct base graphs (cache holds 256 entries)
	serveZipfS    = 1.1  // Zipf exponent of the graph popularity
	serveZipfV    = 20   // Zipf offset: a flat head keeps misses the majority
	servePerturb  = 0.2  // share of near-miss bodies
	serveRate     = 20.0 // open-loop arrivals per second
	serveSLO      = 100 * time.Millisecond
	serveWarmup   = 3 * time.Second // cache fill before the measured window
	serveStarts   = 7               // daemon starts timed for setup_s
	serveParIters = 8               // par requests are iteration-bounded, so cacheable
)

var serveMixSolvers = []struct {
	name  string
	share float64
}{{"robust", 0.7}, {"pa", 0.2}, {"par", 0.1}}

// serveReq is one generated request of the arrival sequence.
type serveReq struct {
	due    time.Duration // offset from the start of the arrival process
	solver string
	graph  *taskgraph.Graph
	body   []byte
}

// genServe generates n requests arriving as a Poisson process at rate. The
// requests themselves — solver, graph, perturbation — are a fixed multiset
// drawn once over a fixed pool, like the Table I suite; the seed draws
// their order and arrival times. Seeds therefore differ in timing and in
// which requests hit the warm cache, not in how much solving the run holds.
func genServe(seed int64, n int, rate float64) ([]serveReq, error) {
	fixed := rand.New(rand.NewSource(2016))
	pool := make([]*taskgraph.Graph, servePool)
	for i := range pool {
		g, err := benchgen.Generate(benchgen.Config{Tasks: 10 + fixed.Intn(51), Seed: 2016*7919 + int64(i)})
		if err != nil {
			return nil, err
		}
		pool[i] = g
	}
	zipf := rand.NewZipf(fixed, serveZipfS, serveZipfV, servePool-1)
	multiset := make([]serveReq, n)
	for i := range multiset {
		r := &multiset[i]
		u := fixed.Float64()
		for _, s := range serveMixSolvers {
			r.solver = s.name
			if u < s.share {
				break
			}
			u -= s.share
		}
		r.graph = pool[zipf.Uint64()]
		if fixed.Float64() < servePerturb {
			// A near miss: one implementation time of one task bumped by a
			// few ticks, which the cache's similarity probe warm-starts.
			p := r.graph.Clone()
			t := fixed.Intn(len(p.Tasks))
			im := fixed.Intn(len(p.Tasks[t].Impls))
			p.Tasks[t].Impls[im].Time += 1 + fixed.Int63n(3)
			r.graph = p
		}
	}

	rng := rand.New(rand.NewSource(seed))
	reqs := make([]serveReq, n)
	var at float64
	for i, j := range rng.Perm(n) {
		at += rng.ExpFloat64() / rate
		reqs[i] = multiset[j]
		reqs[i].due = time.Duration(at * float64(time.Second))
		body, err := requestBody(reqs[i].solver, reqs[i].graph)
		if err != nil {
			return nil, err
		}
		reqs[i].body = body
	}
	return reqs, nil
}

func requestBody(solver string, g *taskgraph.Graph) ([]byte, error) {
	raw, err := json.Marshal(g)
	if err != nil {
		return nil, err
	}
	req := serve.SolveRequest{Solver: solver, Graph: raw, IncludeSchedule: true}
	if solver == "par" {
		req.MaxIterations = serveParIters
		req.Seed = 1
	}
	return json.Marshal(req)
}

// daemon is one running paschedd child process.
type daemon struct {
	cmd *exec.Cmd
	url string
}

// startDaemon launches paschedd with its default flags on an ephemeral
// port and waits until /healthz answers.
func startDaemon(cfg config, dir string) (*daemon, error) {
	addrFile := filepath.Join(dir, "paschedd.addr")
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "paschedd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(cfg.daemon, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting paschedd: %w", err)
	}
	d := &daemon{cmd: cmd}
	// Poll every 2 ms, for at most about 10 s.
	for i := 0; i < 5000; i++ {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			d.url = "http://" + strings.TrimSpace(string(addr))
			resp, err := http.Get(d.url + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("paschedd did not become healthy (log in %s)", dir)
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// waits until the process has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(20*time.Second, func() { _ = d.cmd.Process.Kill() })
	_ = d.cmd.Wait() // the exit status of a drained daemon carries no information
	kill.Stop()
}

func (d *daemon) metrics() (*obs.MetricsDoc, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc obs.MetricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return &doc, nil
}

// serveOutcome is what the client saw for one request.
type serveOutcome struct {
	sent, done time.Time
	status     int
	body       []byte
	err        error
	// wrote and first are set from the transport's goroutines.
	mu           sync.Mutex
	wrote, first time.Time
}

// fire sends one request and records its timeline: when it was sent, when
// the request was written, when the first response byte arrived and when
// the body was read.
func fire(client *http.Client, url string, r *serveReq, o *serveOutcome) {
	o.sent = time.Now()
	trace := &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) {
			o.mu.Lock()
			o.wrote = time.Now()
			o.mu.Unlock()
		},
		GotFirstResponseByte: func() {
			o.mu.Lock()
			o.first = time.Now()
			o.mu.Unlock()
		},
	}
	req, err := http.NewRequest(http.MethodPost, url+"/solve", bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	resp, err := client.Do(req)
	if err != nil {
		o.err, o.done = err, time.Now()
		return
	}
	o.body, o.err = io.ReadAll(resp.Body)
	o.done = time.Now()
	o.status = resp.StatusCode
	_ = resp.Body.Close()
}

func serveClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// openLoop sends every request at its due time from conns senders and
// returns the outcomes in request order with the instant the arrival
// process started. onWindow, when non-nil, runs concurrently once the
// arrivals reach the measured window.
func openLoop(d *daemon, reqs []serveReq, conns int, tr *obs.Trace, onWindow func()) ([]serveOutcome, time.Time) {
	out := make([]serveOutcome, len(reqs))
	client := serveClient(conns)
	defer client.CloseIdleConnections()
	jobs := make(chan int, len(reqs)) // sized to the number of sends
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sp := tr.StartRoot("bench.request", obs.Str("solver", reqs[i].solver))
				fire(client, d.url, &reqs[i], &out[i])
				sp.End(obs.Int("status", int64(out[i].status)))
			}
		}()
	}
	var side sync.WaitGroup
	for i := range reqs {
		if onWindow != nil && reqs[i].due >= serveWarmup {
			side.Add(1)
			go func(f func()) { defer side.Done(); f() }(onWindow)
			onWindow = nil
		}
		time.Sleep(time.Until(start.Add(reqs[i].due)))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	side.Wait()
	return out, start
}

func runServeMix(cfg config) (*report, error) {
	dir, err := scratchDir(cfg, "serve")
	if err != nil {
		return nil, err
	}
	n := int(serveRate*(serveWarmup.Seconds()+float64(cfg.seconds))) + 1
	reqs, err := genServe(cfg.seed, n, serveRate)
	if err != nil {
		return nil, err
	}
	a, err := arch.Preset("zedboard")
	if err != nil {
		return nil, err
	}
	// setup_s: daemon start until /healthz is ok, median of several starts;
	// the last daemon serves the run.
	var d *daemon
	starts := make([]float64, 0, serveStarts)
	for i := 0; i < serveStarts; i++ {
		if d != nil {
			d.stop()
		}
		begin := time.Now()
		d, err = startDaemon(cfg, dir)
		if err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(begin).Seconds())
	}
	defer d.stop()

	conns := runtime.NumCPU()
	var tr *obs.Trace
	var before, after *obs.MetricsDoc
	var beforeErr error
	var onWindow func()
	if cfg.traced {
		tr = obs.New()
		onWindow = func() { before, beforeErr = d.metrics() }
	}
	out, start := openLoop(d, reqs, conns, tr, onWindow)
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		if beforeErr != nil {
			return nil, beforeErr
		}
		if before == nil {
			return nil, fmt.Errorf("the run ended before the measured window began")
		}
		if after, err = d.metrics(); err != nil {
			return nil, err
		}
	}

	rep := newReport()
	ss := verifyServe(reqs, out, start, a, rep, tr != nil)
	if cfg.traced {
		if err := writeTraces(cfg, map[string]*obs.Trace{"client": tr}); err != nil {
			return nil, err
		}
		serveLayers(rep, ss, before, after)
		return rep, nil
	}
	rep.values["setup_s"] = median(starts)
	rep.values["peak_rss_mb"] = rss
	rep.values["latency_p50_ms"] = quantile(ss.latency, 0.50)
	rep.values["latency_p90_ms"] = quantile(ss.latency, 0.90)
	rep.values["makespan_geomean"] = math.Exp(ratio(ss.logMakespan, float64(ss.verified)))
	rep.values["slo_ok_share"] = ratio(float64(ss.sloOK), float64(ss.sent))
	return rep, nil
}

// serveStats is the client-side view of the measured window.
type serveStats struct {
	sent, sloOK, shed, degraded int
	hits, warm, miss            int
	verified                    int       // verified responses
	logMakespan                 float64   // summed log makespan of the verified responses
	latency                     []float64 // ms from due to response, every answered request
	late, transport             []float64 // ms
	schedMS                     []float64 // reported scheduling time of each solved (not hit) response
	decodeUS, encodeUS, keyUS   []float64
	replayUS                    []float64
}

// verifyServe checks every response — 200, a schedule that decodes against
// the request's graph (schedule.ReadJSON re-runs schedule.Check), a
// reported makespan equal to the schedule's own, and a replay (sim.Execute)
// that does not overrun it — and tallies the measured window. probe also
// times the client-side layer calls the daemon makes on each request:
// graph decoding, cache keying and schedule encoding.
func verifyServe(reqs []serveReq, out []serveOutcome, start time.Time, a *arch.Architecture,
	rep *report, probe bool) *serveStats {
	ss := &serveStats{}
	for i := range reqs {
		r, o := &reqs[i], &out[i]
		inWindow := r.due >= serveWarmup
		rep.attempted++
		due := start.Add(r.due)
		resp, replay, err := checkResponse(r, o, a)
		if err != nil {
			rep.fail(o.status == http.StatusOK, fmt.Errorf("request %d (%s): %w", i, r.solver, err))
		}
		if !inWindow {
			continue
		}
		ss.sent++
		if o.status == http.StatusTooManyRequests {
			ss.shed++
		}
		if o.err == nil && o.status != 0 {
			lat := o.done.Sub(due)
			ss.latency = append(ss.latency, ms(lat))
			ss.late = append(ss.late, ms(o.sent.Sub(due)))
			o.mu.Lock()
			if !o.wrote.IsZero() && !o.first.IsZero() {
				ss.transport = append(ss.transport, ms(o.wrote.Sub(o.sent)+o.done.Sub(o.first)))
			}
			o.mu.Unlock()
			if err == nil && lat <= serveSLO {
				ss.sloOK++
			}
		}
		if resp == nil {
			continue
		}
		ss.verified++
		ss.logMakespan += math.Log(float64(resp.Makespan))
		ss.replayUS = append(ss.replayUS, us(replay))
		if resp.Cache != "hit" {
			ss.schedMS = append(ss.schedMS, float64(resp.SchedulingUS)/1e3)
		}
		if resp.Degraded {
			ss.degraded++
		}
		switch resp.Cache {
		case "hit":
			ss.hits++
		case "warm":
			ss.warm++
		default:
			ss.miss++
		}
		if probe {
			probeServe(r, resp, a, ss)
		}
	}
	return ss
}

// checkResponse verifies one response and returns its decoded body when it
// is a verified 200, with the time the verification replay took.
func checkResponse(r *serveReq, o *serveOutcome, a *arch.Architecture) (*serve.SolveResponse, time.Duration, error) {
	if o.err != nil {
		return nil, 0, o.err
	}
	if o.status != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
	}
	var resp serve.SolveResponse
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return nil, 0, fmt.Errorf("decoding response: %w", err)
	}
	sch, err := schedule.ReadJSON(bytes.NewReader(resp.Schedule), r.graph, a)
	if err != nil {
		return nil, 0, err
	}
	replay, err := verifySchedule(sch, resp.Makespan, nil)
	if err != nil {
		return nil, replay, err
	}
	return &resp, replay, nil
}

// probeServe times, on the client, the library calls the daemon makes on
// every request: decoding the wire graph, computing the cache key, and
// encoding the response schedule.
func probeServe(r *serveReq, resp *serve.SolveResponse, a *arch.Architecture, ss *serveStats) {
	var wire serve.SolveRequest
	if err := json.Unmarshal(r.body, &wire); err != nil {
		return
	}
	begin := time.Now()
	g, err := taskgraph.Read(bytes.NewReader(wire.Graph))
	ss.decodeUS = append(ss.decodeUS, us(time.Since(begin)))
	if err != nil {
		return
	}
	opts := solve.Options{Workers: 1, Seed: wire.Seed, MaxIterations: wire.MaxIterations}
	begin = time.Now()
	schedcache.Key(&solve.Request{Graph: g, Arch: a, Options: opts}, r.solver)
	ss.keyUS = append(ss.keyUS, us(time.Since(begin)))
	sch, err := schedule.ReadJSON(bytes.NewReader(resp.Schedule), g, a)
	if err != nil {
		return
	}
	var buf bytes.Buffer
	begin = time.Now()
	err = sch.WriteJSON(&buf)
	ss.encodeUS = append(ss.encodeUS, us(time.Since(begin)))
	if err != nil {
		return
	}
}

// serveLayers turns a traced run into the per-layer metrics: the daemon's
// own histograms and counters over the measured window (the difference of
// two /metrics reads) and the client's view of the same requests.
func serveLayers(rep *report, ss *serveStats, before, after *obs.MetricsDoc) {
	v := rep.values
	histMean := func(name string) float64 {
		b, e := before.Histograms[name], after.Histograms[name]
		return ratio(e.Sum-b.Sum, float64(e.Count-b.Count))
	}
	counter := func(name string) float64 {
		return float64(after.Counters[name] - before.Counters[name])
	}
	// spanMS sums the window's span time of every span name with the prefix.
	spanMS := func(prefix string) float64 {
		var total float64
		for name, st := range after.Spans {
			if strings.HasPrefix(name, prefix) {
				total += st.TotalUS - before.Spans[name].TotalUS
			}
		}
		return total / 1e3
	}
	sent := float64(ss.sent)
	v["floorplan.solve_ms"] = ratio(spanMS("floorplan.solve"), sent)
	for ph := 1; ph <= 7; ph++ {
		name := fmt.Sprintf("pa.phase%d", ph)
		v[name] = ratio(spanMS(name+"."), sent)
	}
	v["sched.scheduling_ms"] = mean(ss.schedMS)
	v["sim.execute_us"] = mean(ss.replayUS)
	calls := counter("floorplan.calls")
	v["floorplan.calls"] = ratio(calls, sent)
	v["floorplan.nodes"] = ratio(counter("floorplan.nodes"), sent)
	v["floorplan.feasible_ratio"] = ratio(counter("floorplan.feasible"), calls)
	v["schedule.encode_us"] = mean(ss.encodeUS)
	v["taskgraph.decode_us"] = mean(ss.decodeUS)
	v["schedcache.key_us"] = mean(ss.keyUS)
	v["cache.lookup_us"] = histMean("cache.lookup_us")
	answered := float64(ss.hits + ss.warm + ss.miss)
	v["cache.hit_ratio"] = ratio(float64(ss.hits), answered)
	v["cache.warm_ratio"] = ratio(float64(ss.warm), answered)
	v["cache.miss_ratio"] = ratio(float64(ss.miss), answered)
	queue, request := histMean("serve.queue_wait_us"), histMean("serve.request_us")
	v["serve.queue_wait_us"] = queue
	v["serve.request_us"] = request
	v["serve.shed_share"] = ratio(float64(ss.shed), sent)
	v["serve.degraded_share"] = ratio(float64(ss.degraded), sent)
	late, transport := mean(ss.late), mean(ss.transport)
	v["serve.gen_late_ms"] = late
	v["serve.transport_ms"] = transport
	v["latency_p99_ms"] = quantile(ss.latency, 0.99)
	for _, s := range serveMixSolvers {
		name := "solve." + s.name + ".latency_us"
		v[name] = histMean(name)
	}
	covered := late + transport + (queue+request)/1e3
	v["unattributed_share"] = 1 - ratio(covered, mean(ss.latency))
}

// runCapacity measures the daemon's closed-loop capacity for the serve-mix
// request mix: as many back-to-back clients as CPUs, the same warm-up, then
// completed requests per second over the measured window. The open-loop
// rate serveRate is set to about half of it.
func runCapacity(cfg config) error {
	dir, err := scratchDir(cfg, "serve")
	if err != nil {
		return err
	}
	total := serveWarmup + time.Duration(cfg.seconds)*time.Second
	reqs, err := genServe(cfg.seed, int(400*total.Seconds()), serveRate)
	if err != nil {
		return err
	}
	d, err := startDaemon(cfg, dir)
	if err != nil {
		return err
	}
	defer d.stop()
	conns := runtime.NumCPU()
	client := serveClient(conns)
	defer client.CloseIdleConnections()
	out := make([]serveOutcome, len(reqs))
	next := make(chan int, len(reqs)) // sized to the number of sends
	for i := range reqs {
		next <- i
	}
	close(next)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				select {
				case <-stop:
					return
				default:
				}
				fire(client, d.url, &reqs[i], &out[i])
			}
		}()
	}
	start := time.Now()
	time.Sleep(total)
	close(stop)
	wg.Wait()
	windowStart := start.Add(serveWarmup)
	var done int
	var failed int
	for i := range out {
		o := &out[i]
		if o.done.IsZero() || o.done.Before(windowStart) {
			continue
		}
		done++
		if o.err != nil || o.status != http.StatusOK {
			failed++
		}
	}
	fmt.Printf("serve-mix closed-loop capacity: %.1f req/s over %d connections (%d completed, %d not 200)\n",
		float64(done)/float64(cfg.seconds), conns, done, failed)
	return nil
}
