package sched

import (
	"reflect"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/schedule"
)

// TestArenaReuseIsTransparent proves the state pool is purely an
// allocation concern: solving on a state that earlier runs left dirty —
// drawn from the pool, or held across runs as a PA-R worker holds one —
// yields schedules DeepEqual to runs on a fresh state, so every caller can
// share the pool without cross-run bleed.
func TestArenaReuseIsTransparent(t *testing.T) {
	a := arch.ZedBoard()
	held := getState()
	defer putState(held)
	for _, seed := range []int64{11, 12, 13} {
		g := genGraph(t, benchgen.Config{Tasks: 30, Seed: seed})
		fresh, _, err := Schedule(g, a, Options{scratch: &state{}})
		if err != nil {
			t.Fatal(err)
		}
		// Two back-to-back runs each way: the second sees the first's
		// dirty buffers, which reset must fully neutralise.
		for i := 0; i < 2; i++ {
			pooled, _, err := Schedule(g, a, Options{})
			if err != nil {
				t.Fatalf("seed %d run %d on a pooled state: %v", seed, i, err)
			}
			if !reflect.DeepEqual(pooled, fresh) {
				t.Fatalf("seed %d run %d on a pooled state diverged from a fresh-state run", seed, i)
			}
			reused, _, err := Schedule(g, a, Options{scratch: held})
			if err != nil {
				t.Fatalf("seed %d run %d on a held state: %v", seed, i, err)
			}
			if !reflect.DeepEqual(reused, fresh) {
				t.Fatalf("seed %d run %d on a held state diverged from a fresh-state run", seed, i)
			}
		}
	}
}

// TestArenaReuseAcrossFabrics moves a state between device presets: a
// solve on a state that last served another fabric must equal a solve on a
// fresh state, so a pooled state never answers with the capacity footprints
// of the previous run's fabric. Checked for every ordered pair of presets
// over suite graphs of 10 to 100 tasks, on a held state and on the pool.
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
			sch, _, err := Schedule(e.Graph, a, Options{scratch: &state{}})
			if err != nil {
				t.Fatalf("%s group %d: %v", name, e.Group, err)
			}
			fresh[name] = append(fresh[name], sch)
		}
	}
	for _, from := range names {
		prev, err := arch.Preset(from)
		if err != nil {
			t.Fatal(err)
		}
		for _, to := range names {
			if from == to {
				continue
			}
			a, err := arch.Preset(to)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for _, e := range suite {
				if e.Index != 0 {
					continue
				}
				held := &state{}
				for _, opts := range []Options{{scratch: held}, {}} {
					// The first run leaves its state (held, or the one it
					// returns to the pool) dirty with the other fabric.
					if _, _, err := Schedule(e.Graph, prev, opts); err != nil {
						t.Fatalf("%s→%s group %d on %s: %v", from, to, e.Group, from, err)
					}
					sch, _, err := Schedule(e.Graph, a, opts)
					if err != nil {
						t.Fatalf("%s→%s group %d on %s: %v", from, to, e.Group, to, err)
					}
					if !reflect.DeepEqual(sch, fresh[to][i]) {
						t.Fatalf("%s→%s group %d: makespan %d on a reused state, %d on a fresh one",
							from, to, e.Group, sch.Makespan, fresh[to][i].Makespan)
					}
				}
				i++
			}
		}
	}
}
