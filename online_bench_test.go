package repro

import (
	"fmt"
	"testing"

	"resched/internal/arch"
	"resched/internal/online"
)

// onlineTrace is the fixed benchmark trace config: enough jobs and
// communication that epochs genuinely interleave frozen prefixes with
// re-planned tails, small enough that one epoch is the dominant cost.
func onlineTrace(jobs, tasks int) online.TraceConfig {
	return online.TraceConfig{
		Jobs:        jobs,
		TasksPerJob: tasks,
		Seed:        2016,
		MeanGap:     800,
		CommMax:     30,
	}
}

// BenchmarkOnlineEpoch measures the per-epoch re-plan cost: each iteration
// runs one full rolling-horizon pass (submit all jobs, re-plan at every
// arrival boundary) and reports the amortized cost per epoch — the figure
// that bounds how often a deployment can afford to re-plan.
func BenchmarkOnlineEpoch(b *testing.B) {
	a, err := arch.Preset("zedboard")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := online.GenTrace(onlineTrace(5, 10))
	if err != nil {
		b.Fatal(err)
	}
	epochs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := online.New(online.Config{Arch: a, Solver: "pa", Seed: 2016})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.SubmitTrace(tr); err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		epochs += len(eng.Epochs())
	}
	b.StopTimer()
	if epochs == 0 {
		b.Fatal("no epochs ran")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(epochs), "ns/epoch")
}

// BenchmarkOnlineTraceThroughput measures whole-trace turnaround across
// trace sizes: submit, re-plan at every boundary, finalize. This is the
// end-to-end latency a session-mode client observes.
func BenchmarkOnlineTraceThroughput(b *testing.B) {
	a, err := arch.Preset("zedboard")
	if err != nil {
		b.Fatal(err)
	}
	for _, jobs := range []int{4, 8} {
		tr, err := online.GenTrace(onlineTrace(jobs, 10))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := online.New(online.Config{Arch: a, Solver: "pa", Seed: 2016})
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.SubmitTrace(tr); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Finalize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOnlineNoPrefetchRetime measures a rolling-horizon pass with
// DisablePrefetch: every epoch tail is re-timed by sim.ExecuteOnDemand, the
// issue-at-dispatch rule behind -no-prefetch. (The per-epoch StallHidden
// metric does not come from this simulation; stallStats estimates it per
// load on the prefetching plan.)
func BenchmarkOnlineNoPrefetchRetime(b *testing.B) {
	a, err := arch.Preset("zedboard")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := online.GenTrace(onlineTrace(5, 10))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		eng, err := online.New(online.Config{Arch: a, Solver: "pa", Seed: 2016, DisablePrefetch: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.SubmitTrace(tr); err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
