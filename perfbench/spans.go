package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"resched/internal/obs"
)

// The harness records its own spans with the repository's obs package: a
// span around each call it makes into a layer's public function, kept in
// memory and written out when the run ends. Traces handed to the program
// (solve.Options.Trace, online.Config.Trace) are the same obs.Trace, so the
// program's existing spans nest under the harness span that caused them
// and self-times fall out of one tree.

// selfTimes returns, per span name, the summed self-time of every span with
// that name: its duration minus the part its child spans cover.
func selfTimes(snap obs.Snapshot) map[string]time.Duration {
	child := make([]time.Duration, len(snap.Spans))
	for _, sp := range snap.Spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.Duration()
		}
	}
	out := map[string]time.Duration{}
	for i, sp := range snap.Spans {
		out[sp.Name] += sp.Duration() - child[i]
	}
	return out
}

// selfTimeWithPrefix sums the self-times of every span name starting with
// prefix (the PA phase spans carry a descriptive suffix, "pa.phase3.regions").
func selfTimeWithPrefix(self map[string]time.Duration, prefix string) time.Duration {
	var total time.Duration
	for name, d := range self {
		if strings.HasPrefix(name, prefix) {
			total += d
		}
	}
	return total
}

// histMean reads the mean of a histogram the program recorded (Observe) on
// the trace; 0 when it recorded nothing.
func histMean(snap obs.Snapshot, name string) float64 {
	h, ok := snap.Histograms[name]
	if !ok {
		return 0
	}
	return ratio(h.Sum, float64(h.Count))
}

// writeTraces dumps each named trace as a Chrome trace-event file under the
// checkout's build tree, so a traced run can be inspected in Perfetto.
func writeTraces(cfg config, traces map[string]*obs.Trace) error {
	dir, err := scratchDir(cfg, "traces")
	if err != nil {
		return err
	}
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tr := traces[name]
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
