// Command paschedload is the deterministic load generator for paschedd: it
// fires seeded benchgen task graphs at a running daemon from a pool of
// concurrent clients, retries load-shed responses with capped exponential
// backoff plus seeded jitter, and reports client-side throughput and
// latency quantiles in the cmd/benchjson document format. It is the
// client of `make serve-smoke`; perfbench's serve-mix workload, not this
// report, measures serving speed.
//
// Usage:
//
//	paschedload -url http://127.0.0.1:8080 [-n 200] [-c 8] [-rate 0]
//	            [-solver robust] [-arch ""] [-tasks 24] [-graphs 4]
//	            [-seed 1] [-timeout-ms 0] [-max-retries 8]
//	            [-backoff 5ms] [-backoff-cap 250ms] [-o load.json]
//	            [-repeat-frac 0] [-perturb-frac 0]
//
// Cache exercise: -repeat-frac re-sends one of the base bodies verbatim
// (the daemon's schedule cache answers with an exact hit), -perturb-frac
// sends a near-miss — one implementation time of one task bumped by a few
// ticks — which the cache warm-starts. Both draws come from a PRNG seeded
// with -seed, and the first -graphs tickets always send the base bodies in
// order (priming), so a given flag set replays the same request sequence
// and the reported cache hit ratio is reproducible.
//
// Retry policy: 429 and 503 (the daemon's explicit load-shed and drain
// answers) and transport errors are retried up to -max-retries times with
// backoff min(backoff<<attempt, cap) plus jitter drawn from a per-worker
// PRNG seeded with -seed, so a given flag set replays the same retry
// schedule. The daemon's Retry-After hint is honoured when it exceeds the
// computed backoff. Any other non-200 answer (400, 422, 500, 504) is a
// terminal outcome counted per class; the command exits non-zero only when
// a request dies on the retry cap or an unexpected status, which makes a
// clean exit the "zero crashes, nothing dropped" check of the robustness
// acceptance run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resched/internal/benchgen"
	"resched/internal/taskgraph"
)

// outcome classes tallied across the run.
const (
	outOK        = iota
	outShed      // 429/503 answers that were retried
	outTerminal  // 4xx/5xx answers that end a request (422, 500, 504, ...)
	outExhausted // retry budget ran out
	outTransport // connection-level failures that were retried
	numOutcomes
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paschedload:", err)
		os.Exit(1)
	}
}

func run() error {
	url := flag.String("url", "http://127.0.0.1:8080", "daemon base URL")
	addrFile := flag.String("addr-file", "", "read the daemon address from this file (overrides -url)")
	n := flag.Int("n", 200, "total requests")
	c := flag.Int("c", 8, "concurrent clients")
	rate := flag.Float64("rate", 0, "target request rate per second across all clients (0 = unlimited)")
	solver := flag.String("solver", "robust", "solver name to request")
	archName := flag.String("arch", "", "board preset to request (empty = daemon default)")
	tasks := flag.Int("tasks", 24, "tasks per generated graph")
	graphs := flag.Int("graphs", 4, "distinct seeded graphs cycled through")
	seed := flag.Int64("seed", 1, "seed for graph generation and retry jitter")
	timeoutMS := flag.Int64("timeout-ms", 0, "per-request budget sent to the daemon (0 = server clamp)")
	maxRetries := flag.Int("max-retries", 8, "retry cap per request for shed/transport failures")
	backoff := flag.Duration("backoff", 5*time.Millisecond, "base retry backoff")
	backoffCap := flag.Duration("backoff-cap", 250*time.Millisecond, "retry backoff ceiling")
	repeatFrac := flag.Float64("repeat-frac", 0, "fraction of requests re-sending a base body verbatim (exact cache hits)")
	perturbFrac := flag.Float64("perturb-frac", 0, "fraction of requests sending a near-miss perturbation (cache warm starts)")
	out := flag.String("o", "", "write the benchjson report here (default stdout)")
	flag.Parse()

	base := *url
	if *addrFile != "" {
		b, err := os.ReadFile(*addrFile)
		if err != nil {
			return err
		}
		base = "http://" + string(bytes.TrimSpace(b))
	}

	bases, baseGraphs, err := requestBodies(*graphs, *tasks, *seed, *solver, *archName, *timeoutMS)
	if err != nil {
		return err
	}
	bodies, err := bodySequence(bases, baseGraphs, *n, *seed, *repeatFrac, *perturbFrac,
		*solver, *archName, *timeoutMS)
	if err != nil {
		return err
	}

	var (
		next     atomic.Int64 // global request ticket
		counts   [numOutcomes]atomic.Int64
		cache    cacheTally
		retries  atomic.Int64
		mu       sync.Mutex
		lats     []time.Duration // successful-request latencies incl. retries
		firstErr error
	)
	interval := time.Duration(0)
	if *rate > 0 {
		interval = time.Duration(float64(time.Second) / *rate)
	}
	client := &http.Client{Timeout: 60 * time.Second}
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Per-worker PRNG: jitter is deterministic given (-seed, -c).
			rng := rand.New(rand.NewSource(*seed + int64(worker)*7919))
			for {
				i := next.Add(1) - 1
				if i >= int64(*n) {
					return
				}
				if interval > 0 {
					time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
				}
				lat, err := fire(client, base, bodies[int(i)], rng,
					*maxRetries, *backoff, *backoffCap, &counts, &cache, &retries)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("request %d: %w", i, err)
					}
					mu.Unlock()
					continue
				}
				mu.Lock()
				lats = append(lats, lat)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	doc := report(*solver, *c, *n, elapsed, lats, &counts, &cache, retries.Load())
	if err := writeDoc(doc, *out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"paschedload: %d ok, %d terminal, %d shed-retried, %d retry-exhausted in %v\n",
		counts[outOK].Load(), counts[outTerminal].Load(),
		counts[outShed].Load(), counts[outExhausted].Load(), elapsed.Round(time.Millisecond))
	if firstErr != nil {
		return firstErr
	}
	return nil
}

// requestBodies pre-encodes the base POST bodies: -graphs distinct seeded
// benchgen graphs wrapped in the serve wire schema. The graphs themselves
// come back too so the perturbation path can derive near-misses without
// re-parsing JSON.
func requestBodies(graphs, tasks int, seed int64, solver, archName string, timeoutMS int64) ([][]byte, []*taskgraph.Graph, error) {
	if graphs < 1 {
		graphs = 1
	}
	bodies := make([][]byte, 0, graphs)
	gs := make([]*taskgraph.Graph, 0, graphs)
	for i := 0; i < graphs; i++ {
		g, err := benchgen.Generate(benchgen.Config{Tasks: tasks, Seed: seed + int64(i)})
		if err != nil {
			return nil, nil, err
		}
		body, err := wrapBody(g, solver, archName, timeoutMS)
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, body)
		gs = append(gs, g)
	}
	return bodies, gs, nil
}

// wrapBody encodes one graph in the serve wire schema.
func wrapBody(g *taskgraph.Graph, solver, archName string, timeoutMS int64) ([]byte, error) {
	var gbuf bytes.Buffer
	if err := g.Write(&gbuf); err != nil {
		return nil, err
	}
	req := map[string]any{"solver": solver, "graph": json.RawMessage(gbuf.Bytes())}
	if archName != "" {
		req["arch"] = archName
	}
	if timeoutMS > 0 {
		req["timeout_ms"] = timeoutMS
	}
	return json.Marshal(req)
}

// bodySequence precomputes the body for every request ticket so the mix of
// repeats, perturbations and base cycling is a pure function of the flags:
// the first len(bases) tickets send the bases in order (priming the
// daemon's cache), then each ticket draws once from a dedicated PRNG —
// repeat a random base verbatim, send a near-miss perturbation of one, or
// fall back to plain base cycling.
func bodySequence(bases [][]byte, baseGraphs []*taskgraph.Graph, n int, seed int64,
	repeatFrac, perturbFrac float64, solver, archName string, timeoutMS int64) ([][]byte, error) {
	if repeatFrac < 0 || perturbFrac < 0 || repeatFrac+perturbFrac > 1 {
		return nil, fmt.Errorf("repeat-frac %v / perturb-frac %v: need non-negative fractions summing to at most 1",
			repeatFrac, perturbFrac)
	}
	// The sequence generator is decoupled from the graph/jitter seeds so
	// adding the mix flags never changes the base graphs themselves.
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	seq := make([][]byte, n)
	for i := 0; i < n; i++ {
		if i < len(bases) {
			seq[i] = bases[i]
			continue
		}
		switch r := rng.Float64(); {
		case r < repeatFrac:
			seq[i] = bases[rng.Intn(len(bases))]
		case r < repeatFrac+perturbFrac:
			body, err := perturbBody(baseGraphs[rng.Intn(len(baseGraphs))], rng,
				solver, archName, timeoutMS)
			if err != nil {
				return nil, err
			}
			seq[i] = body
		default:
			seq[i] = bases[i%len(bases)]
		}
	}
	return seq, nil
}

// perturbBody derives a near-miss from a base graph: one implementation
// time of one task bumped by 1–3 ticks — exactly the delta-2 signature
// perturbation the schedule cache's similarity probe accepts.
func perturbBody(g *taskgraph.Graph, rng *rand.Rand, solver, archName string, timeoutMS int64) ([]byte, error) {
	p := g.Clone()
	t := rng.Intn(len(p.Tasks))
	im := rng.Intn(len(p.Tasks[t].Impls))
	p.Tasks[t].Impls[im].Time += 1 + rng.Int63n(3)
	return wrapBody(p, solver, archName, timeoutMS)
}

// cacheTally counts the daemon's per-response cache verdicts.
type cacheTally struct {
	hits, warm, miss atomic.Int64
}

func (c *cacheTally) note(verdict string) {
	switch verdict {
	case "hit":
		c.hits.Add(1)
	case "warm":
		c.warm.Add(1)
	case "miss":
		c.miss.Add(1)
	}
}

// fire runs one logical request to completion: POST, classify, retry shed
// and transport failures under the backoff policy. The returned latency
// spans all attempts — it is the latency a real client would observe.
func fire(client *http.Client, base string, body []byte, rng *rand.Rand,
	maxRetries int, backoff, cap time.Duration,
	counts *[numOutcomes]atomic.Int64, cache *cacheTally, retries *atomic.Int64) (time.Duration, error) {
	begin := time.Now()
	for attempt := 0; ; attempt++ {
		status, retryAfterMS, verdict, err := post(client, base+"/solve", body)
		switch {
		case err != nil:
			counts[outTransport].Add(1)
		case status == http.StatusOK:
			counts[outOK].Add(1)
			cache.note(verdict)
			return time.Since(begin), nil
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			counts[outShed].Add(1)
		default:
			// 400/422/500/504: a definitive answer about this request;
			// retrying cannot change it. Terminal but not a client error.
			counts[outTerminal].Add(1)
			return 0, fmt.Errorf("terminal status %d", status)
		}
		if attempt >= maxRetries {
			counts[outExhausted].Add(1)
			return 0, fmt.Errorf("retries exhausted after %d attempts (last status %d, err %v)",
				attempt+1, status, err)
		}
		retries.Add(1)
		d := backoff << attempt
		if d > cap {
			d = cap
		}
		// Deterministic jitter in [0, backoff) decorrelates the herd.
		d += time.Duration(rng.Int63n(int64(backoff)))
		if ra := time.Duration(retryAfterMS) * time.Millisecond; ra > d {
			d = ra
		}
		time.Sleep(d)
	}
}

// post sends one attempt and extracts (status, retry_after_ms hint, cache
// verdict).
func post(client *http.Client, url string, body []byte) (status int, retryAfterMS int64, cacheVerdict string, err error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, "", err
	}
	defer func() { _ = resp.Body.Close() }()
	var parsed struct {
		RetryAfterMS int64  `json:"retry_after_ms"`
		Cache        string `json:"cache"`
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err == nil {
		_ = json.Unmarshal(raw, &parsed) // best-effort hints; absence is fine
	}
	return resp.StatusCode, parsed.RetryAfterMS, parsed.Cache, nil
}

// benchjson mirrors of cmd/benchjson's Doc layout (kept in sync by
// TestServeLoadReportShape there).
type benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"b_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type doc struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

// report assembles the benchjson document: one benchmark named after the
// run shape, mean latency as ns/op, quantiles and throughput as extras.
func report(solver string, c, n int, elapsed time.Duration, lats []time.Duration,
	counts *[numOutcomes]atomic.Int64, cache *cacheTally, retries int64) doc {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	quantile := func(q float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(q * float64(len(lats)-1))
		return float64(lats[i].Nanoseconds())
	}
	var mean float64
	for _, l := range lats {
		mean += float64(l.Nanoseconds())
	}
	if len(lats) > 0 {
		// Whole nanoseconds, matching cmd/benchjson's rounding: the mean's
		// fractional tail is below timer resolution and churns diffs.
		mean = math.Round(mean / float64(len(lats)))
	}
	rps := float64(len(lats)) / elapsed.Seconds()
	hitRatio := 0.0
	if ok := counts[outOK].Load(); ok > 0 {
		hitRatio = float64(cache.hits.Load()) / float64(ok)
	}
	return doc{
		Goos:   runtime.GOOS,
		Goarch: runtime.GOARCH,
		Pkg:    "resched/cmd/paschedload",
		Benchmarks: []benchmark{{
			Name:       fmt.Sprintf("ServeLoad/%s/c=%d", solver, c),
			Iterations: int64(len(lats)),
			NsPerOp:    mean,
			Extra: map[string]float64{
				"p50_ns":            quantile(0.50),
				"p99_ns":            quantile(0.99),
				"req_per_sec":       rps,
				"requests":          float64(n),
				"retries":           float64(retries),
				"shed_responses":    float64(counts[outShed].Load()),
				"terminal_errors":   float64(counts[outTerminal].Load()),
				"cache_hits":        float64(cache.hits.Load()),
				"cache_warm_starts": float64(cache.warm.Load()),
				"cache_misses":      float64(cache.miss.Load()),
				"cache_hit_ratio":   hitRatio,
			},
		}},
	}
}

func writeDoc(d doc, path string) error {
	w := io.Writer(os.Stdout)
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
