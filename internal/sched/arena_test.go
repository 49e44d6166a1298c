package sched

import (
	"reflect"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/schedule"
)

// TestArenaReuseIsTransparent proves the caller-owned arena is purely an
// allocation concern: solving the same instance repeatedly on one Arena
// yields schedules DeepEqual to fresh-arena runs, so a serving worker can
// keep one arena for its whole lifetime without cross-request bleed.
func TestArenaReuseIsTransparent(t *testing.T) {
	a := arch.ZedBoard()
	arena := NewArena()
	for _, seed := range []int64{11, 12, 13} {
		g := genGraph(t, benchgen.Config{Tasks: 30, Seed: seed})
		fresh, _, err := Schedule(g, a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Two back-to-back runs on the shared arena: the second sees the
		// first's dirty buffers, which reset must fully neutralise.
		for i := 0; i < 2; i++ {
			sch, _, err := Schedule(g, a, Options{Arena: arena})
			if err != nil {
				t.Fatalf("seed %d run %d on shared arena: %v", seed, i, err)
			}
			if !reflect.DeepEqual(sch, fresh) {
				t.Fatalf("seed %d run %d on shared arena diverged from fresh-arena run", seed, i)
			}
		}
	}
}

// TestArenaReuseAcrossFabrics moves one Arena between device presets: a
// solve on an arena that last served another fabric must equal a solve on
// a fresh arena, so a serving worker never answers with the capacity
// footprints of the previous request's fabric. Checked for every ordered
// pair of presets over suite graphs of 10 to 100 tasks.
func TestArenaReuseAcrossFabrics(t *testing.T) {
	suite, err := benchgen.Suite(2016)
	if err != nil {
		t.Fatal(err)
	}
	names := arch.PresetNames()
	fresh := map[string][]*schedule.Schedule{}
	for _, name := range names {
		a, err := arch.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range suite {
			if e.Index != 0 {
				continue
			}
			sch, _, err := Schedule(e.Graph, a, Options{})
			if err != nil {
				t.Fatalf("%s group %d: %v", name, e.Group, err)
			}
			fresh[name] = append(fresh[name], sch)
		}
	}
	for _, from := range names {
		for _, to := range names {
			if from == to {
				continue
			}
			i := 0
			for _, e := range suite {
				if e.Index != 0 {
					continue
				}
				arena := NewArena()
				for _, name := range []string{from, to} {
					a, err := arch.Preset(name)
					if err != nil {
						t.Fatal(err)
					}
					sch, _, err := Schedule(e.Graph, a, Options{Arena: arena})
					if err != nil {
						t.Fatalf("%s→%s group %d on %s: %v", from, to, e.Group, name, err)
					}
					if name == to && !reflect.DeepEqual(sch, fresh[to][i]) {
						t.Fatalf("%s→%s group %d: makespan %d on the reused arena, %d on a fresh one",
							from, to, e.Group, sch.Makespan, fresh[to][i].Makespan)
					}
				}
				i++
			}
		}
	}
}
