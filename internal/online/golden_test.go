package online

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"resched/internal/arch"
)

// noPrefetchDigests pins the issue-at-dispatch baseline bit for bit, keyed
// by the number of reconfiguration controllers: the SHA-256 of the stitched
// schedule and the epoch records of every TestStitchedScheduleProperty
// trace run with DisablePrefetch. Above one controller the digests also pin
// the dynamic channel grant (each load takes the earliest-free controller
// when it is dispatched).
var noPrefetchDigests = map[int]string{
	1: "31347cf895e0854a5853bf1e9d37b0f43ec2ecd9ea8ec348b85f11d88d7fef32",
	2: "0854304ed49f3dc95c5ed74674985afe49003b1dbfc4f53ad913ca9769735d8d",
	3: "908d4bd816b1a4851d93de4fe5272e9f69c423e9515111e5b2ba0514a00e168e",
}

func TestNoPrefetchGoldenDigest(t *testing.T) {
	for _, nch := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("controllers=%d", nch), func(t *testing.T) {
			a := arch.ZedBoard()
			a.Reconfigurators = nch
			h := sha256.New()
			for seed := int64(0); seed < 50; seed++ {
				tr := genTrace(t, TraceConfig{Jobs: 4, TasksPerJob: 8, Seed: seed, MeanGap: 700, CommMax: 40})
				res := runTrace(t, Config{Arch: a, Seed: seed, ModuleReuse: seed%2 == 0, DisablePrefetch: true}, tr)
				fmt.Fprintf(h, "seed %d epochs %+v\n", seed, stripTimes(res.Epochs))
				if err := res.Schedule.WriteJSON(h); err != nil {
					t.Fatal(err)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != noPrefetchDigests[nch] {
				t.Errorf("no-prefetch digest = %s, want %s", got, noPrefetchDigests[nch])
			}
		})
	}
}
