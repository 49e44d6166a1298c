package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/solve"
)

// suiteDigestPerGroup is how many graphs of every Suite(2016) group the
// golden digest covers.
const suiteDigestPerGroup = 3

// suiteDigests pins the Table I searches bit for bit: the SHA-256 of every
// schedule, floorplan and search counter the four Table I columns produce on
// the first graphs of each suite group. Performance work on the floorplanner,
// the CPM passes or the IS-k window search must leave these unchanged; a
// deliberate change of search behaviour re-records them and says why.
var suiteDigests = map[string]string{
	"pa":  "5c52304cb79d1733a719aa4324401d663c626fff4421d9460960f8cbd8aaa08f",
	"par": "afc5a478973e693ed0e952ff389dbcc3f362d05d027db8a91b5c5c41b432a487",
	"is1": "394c267ea9208e39b44057f38bb95bf1103ca79702c6acef6360c6ce952bbcb1",
	"is5": "d1285f44358c674c0d02155504ab9698f8d0ba255a6e323431353769dfe46721",
}

// suiteDigestSolvers are the Table I columns with the options the
// end-to-end benchmark runs them with.
var suiteDigestSolvers = []struct {
	name string
	opts solve.Options
}{
	{"pa", solve.Options{}},
	{"par", solve.Options{MaxIterations: 25, Workers: 1, Seed: 1}},
	{"is1", solve.Options{ModuleReuse: true}},
	{"is5", solve.Options{ModuleReuse: true}},
}

func TestSuiteGoldenDigest(t *testing.T) {
	if raceDetector {
		// Every solve here runs on one goroutine, so the race detector
		// finds nothing and only multiplies the ~5 s runtime by twenty.
		t.Skip("single-goroutine searches; covered by the plain test run")
	}
	suite, err := benchgen.Suite(2016)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.ZedBoard()
	for _, s := range suiteDigestSolvers {
		t.Run(s.name, func(t *testing.T) {
			solver, err := solve.Get(s.name)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, e := range suite {
				if e.Index >= suiteDigestPerGroup {
					continue
				}
				r, err := solver.Solve(&solve.Request{Graph: e.Graph, Arch: a, Options: s.opts})
				if err != nil {
					t.Fatalf("group %d graph %d: %v", e.Group, e.Index, err)
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
			got := hex.EncodeToString(h.Sum(nil))
			if want := suiteDigests[s.name]; got != want {
				t.Errorf("%s suite digest = %s, want %s", s.name, got, want)
			}
		})
	}
}

// suiteParallelDigests pins the strided PA-R engine at W > 1 the same way:
// schedules, floorplans, the final capacity factor and the
// Iterations/FloorplanCalls/Discarded counters on the same graphs.
// Improvements is left out: at W > 1 it is the length of the global-best
// History, which merges the workers' improvements in wall-clock order.
var suiteParallelDigests = map[int]string{
	2: "50d3b2f787b2788264a337cfe9c861712d7a3013ab0617db916ea392738af1e5",
	4: "a48890263dd57aace338626b91753b60185e26cf9b436a862f15a4d0b93ba4d2",
}

func TestSuiteGoldenDigestParallel(t *testing.T) {
	if raceDetector {
		t.Skip("digest covered by the plain test run; -race multiplies the runtime")
	}
	suite, err := benchgen.Suite(2016)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.ZedBoard()
	solver, err := solve.Get("par")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := solve.Options{MaxIterations: 25, Workers: workers, Seed: 1}
			h := sha256.New()
			for _, e := range suite {
				if e.Index >= suiteDigestPerGroup {
					continue
				}
				r, err := solver.Solve(&solve.Request{Graph: e.Graph, Arch: a, Options: opts})
				if err != nil {
					t.Fatalf("group %d graph %d: %v", e.Group, e.Index, err)
				}
				fmt.Fprintf(h, "%d/%d iterations=%d fpcalls=%d discarded=%d capacity=%v placements=%v\n",
					e.Group, e.Index, r.Iterations, r.Search.FloorplanCalls, r.Search.Discarded,
					r.Search.CapacityFactor, r.Placements)
				if err := r.Schedule.WriteJSON(h); err != nil {
					t.Fatal(err)
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := suiteParallelDigests[workers]; got != want {
				t.Errorf("par workers=%d suite digest = %s, want %s", workers, got, want)
			}
		})
	}
}
