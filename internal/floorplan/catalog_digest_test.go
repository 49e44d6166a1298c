package floorplan_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/floorplan"
	"resched/internal/solve"
)

// catalogDigests are the Table I digests of the root package's
// TestSuiteGoldenDigest (suitedigest_test.go), computed here by the same
// recipe; re-record the two together.
var catalogDigests = map[string]string{
	"pa":  "5c52304cb79d1733a719aa4324401d663c626fff4421d9460960f8cbd8aaa08f",
	"par": "afc5a478973e693ed0e952ff389dbcc3f362d05d027db8a91b5c5c41b432a487",
	"is1": "394c267ea9208e39b44057f38bb95bf1103ca79702c6acef6360c6ce952bbcb1",
	"is5": "d1285f44358c674c0d02155504ab9698f8d0ba255a6e323431353769dfe46721",
}

// TestSuiteDigestColdAndWarmCatalog runs the Table I searches of the
// golden digest twice: each solver once from an empty placement catalog
// and once from the catalog its first pass left behind. Both must give the
// pinned digests: who built the candidate sets must not matter.
func TestSuiteDigestColdAndWarmCatalog(t *testing.T) {
	if raceDetector {
		t.Skip("single-goroutine searches; covered by the plain test run")
	}
	suite, err := benchgen.Suite(2016)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.ZedBoard()
	for _, s := range []struct {
		name string
		opts solve.Options
	}{
		{"pa", solve.Options{}},
		{"par", solve.Options{MaxIterations: 25, Workers: 1, Seed: 1}},
		{"is1", solve.Options{ModuleReuse: true}},
		{"is5", solve.Options{ModuleReuse: true}},
	} {
		solver, err := solve.Get(s.name)
		if err != nil {
			t.Fatal(err)
		}
		floorplan.ResetCatalog()
		for _, pass := range []string{"cold", "warm"} {
			builds := floorplan.CatalogBuilds()
			h := sha256.New()
			for _, e := range suite {
				if e.Index >= 3 {
					continue
				}
				r, err := solver.Solve(&solve.Request{Graph: e.Graph, Arch: a, Options: s.opts})
				if err != nil {
					t.Fatalf("%s %s: group %d graph %d: %v", s.name, pass, e.Group, e.Index, err)
				}
				fmt.Fprintf(h, "%d/%d retries=%d iterations=%d placements=%v\n",
					e.Group, e.Index, r.Retries, r.Iterations, r.Placements)
				if w := r.Window; w != nil {
					fmt.Fprintf(h, "windows=%d nodes=%d\n", w.Windows, w.Nodes)
				}
				if sr := r.Search; sr != nil {
					fmt.Fprintf(h, "fpcalls=%d discarded=%d improvements=%d\n",
						sr.FloorplanCalls, sr.Discarded, sr.Improvements)
				}
				if err := r.Schedule.WriteJSON(h); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), catalogDigests[s.name]; got != want {
				t.Errorf("%s digest from a %s catalog = %s, want %s", s.name, pass, got, want)
			}
			built := floorplan.CatalogBuilds() - builds
			if pass == "cold" && built == 0 || pass == "warm" && built != 0 {
				t.Errorf("%s: the %s pass built %d catalog entries", s.name, pass, built)
			}
		}
	}
}
