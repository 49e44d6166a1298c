package isk

import (
	"fmt"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
)

// BenchmarkISKWindow measures one IS-5 window branch and bound in isolation:
// the timeline first commits every window before the middle of the
// priority order, then each iteration searches the middle window (the
// search restores the timeline, so every iteration does the same work).
// Graphs are the first instance of each Table I group, as in the root
// package's BenchmarkTable1IS5.
func BenchmarkISKWindow(b *testing.B) {
	const k = 5
	suite, err := benchgen.Suite(2016)
	if err != nil {
		b.Fatal(err)
	}
	a := arch.ZedBoard()
	for _, e := range suite {
		if e.Index != 0 || (e.Group != 20 && e.Group != 60 && e.Group != 100) {
			continue
		}
		b.Run(fmt.Sprintf("tasks=%d", e.Group), func(b *testing.B) {
			st := newTimeline(e.Graph, a, a.MaxRes, true, false)
			st.tails = tails(e.Graph)
			order, err := priorityOrder(e.Graph)
			if err != nil {
				b.Fatal(err)
			}
			mid := len(order) / 2 / k * k
			var nodes int
			for lo := 0; lo < mid; lo += k {
				if err := st.solveWindow(order[lo:lo+k], 50000, &nodes, nil); err != nil {
					b.Fatal(err)
				}
			}
			window := order[mid : mid+k]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.searchWindow(window, 50000, &nodes, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
