package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: resched
cpu: AMD EPYC 7B13
BenchmarkTable1PA/tasks=10-8         	    2690	    427950 ns/op	  137801 B/op	    1511 allocs/op
BenchmarkTable1PA/tasks=100-8        	      66	  17585235 ns/op	 4633766 B/op	   49366 allocs/op
BenchmarkAblationOrdering/efficiency-8 	    1892	    611999 ns/op	     14279 makespan	  178722 B/op
PASS
ok  	resched	12.3s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "resched" {
		t.Errorf("header = %q/%q/%q, want linux/amd64/resched", doc.Goos, doc.Goarch, doc.Pkg)
	}
	if doc.CPU != "AMD EPYC 7B13" {
		t.Errorf("cpu = %q", doc.CPU)
	}
	if doc.GOMAXPROCS != 8 {
		t.Errorf("gomaxprocs = %d, want 8 from the -8 name suffixes", doc.GOMAXPROCS)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkTable1PA/tasks=10-8" {
		t.Errorf("name = %q", b.Name)
	}
	if b.Iterations != 2690 || b.NsPerOp != 427950 || b.BytesPerOp != 137801 || b.AllocsPerOp != 1511 {
		t.Errorf("metrics = %+v", b)
	}
	// Custom metric (b.ReportMetric) lands in Extra keyed by unit.
	if got := doc.Benchmarks[2].Extra["makespan"]; got != 14279 {
		t.Errorf("makespan extra = %v, want 14279", got)
	}
}

func TestParseMultiPackage(t *testing.T) {
	// `go test -bench` over several packages repeats the header per
	// package; the document names the first and keeps every result.
	second := `goos: linux
goarch: amd64
pkg: resched/internal/isk
cpu: AMD EPYC 7B13
BenchmarkISKWindow/tasks=20-8 	      80	  14819192 ns/op	       0 B/op	       0 allocs/op
PASS
`
	doc, err := parse(strings.NewReader(sample + second))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Pkg != "resched" {
		t.Errorf("pkg = %q, want the first package", doc.Pkg)
	}
	if len(doc.Benchmarks) != 4 || doc.Benchmarks[3].Name != "BenchmarkISKWindow/tasks=20-8" {
		t.Errorf("parsed %+v", doc.Benchmarks)
	}
}

func TestParseGOMAXPROCS(t *testing.T) {
	cases := []struct {
		name, in string
		want     int
	}{
		{"no suffix is GOMAXPROCS 1", "BenchmarkA 10 5 ns/op\nBenchmarkB/tasks=10 10 5 ns/op\n", 1},
		{"agreeing suffixes", "BenchmarkA-2 10 5 ns/op\nBenchmarkB/tasks=10-2 10 5 ns/op\n", 2},
		{"mixed -cpu list is unstated", "BenchmarkA-2 10 5 ns/op\nBenchmarkA-4 10 5 ns/op\n", 0},
	}
	for _, c := range cases {
		doc, err := parse(strings.NewReader(c.in))
		if err != nil {
			t.Fatal(err)
		}
		if doc.GOMAXPROCS != c.want {
			t.Errorf("%s: gomaxprocs = %d, want %d", c.name, doc.GOMAXPROCS, c.want)
		}
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	doc, err := parse(strings.NewReader("random output\nBenchmark broken line\nok resched 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from noise, want 0", len(doc.Benchmarks))
	}
}

func TestNormalizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"BenchmarkTable1PA/tasks=10-8", "BenchmarkTable1PA/tasks=10"},
		{"BenchmarkTable1PA/tasks=10-16", "BenchmarkTable1PA/tasks=10"},
		{"BenchmarkPAR/workers=4-1", "BenchmarkPAR/workers=4"},
		{"BenchmarkFoo", "BenchmarkFoo"},
		{"BenchmarkFoo-", "BenchmarkFoo-"},
		{"BenchmarkFoo-x8", "BenchmarkFoo-x8"},
	}
	for _, c := range cases {
		if got := normalizeName(c.in); got != c.want {
			t.Errorf("normalizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPctDelta(t *testing.T) {
	cases := []struct{ oldV, newV, want float64 }{
		{100, 110, 10},
		{100, 80, -20},
		{0, 0, 0},
		{0, 5, 100},
	}
	for _, c := range cases {
		if got := pctDelta(c.oldV, c.newV); got != c.want {
			t.Errorf("pctDelta(%v, %v) = %v, want %v", c.oldV, c.newV, got, c.want)
		}
	}
}

// writeDoc marshals a Doc into a temp file and returns its path.
func writeDoc(t *testing.T, doc *Doc) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCompare(t *testing.T) {
	// Old document produced on an 8-core machine, new on a 1-core machine:
	// the GOMAXPROCS suffixes differ but the rows must still pair up.
	oldDoc := &Doc{Benchmarks: []Benchmark{
		{Name: "BenchmarkTable1PA/tasks=10-8", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkTable1PA/tasks=20-8", NsPerOp: 2000, AllocsPerOp: 200},
		{Name: "BenchmarkOld/gone-8", NsPerOp: 10, AllocsPerOp: 1},
	}}
	newDoc := &Doc{Benchmarks: []Benchmark{
		{Name: "BenchmarkTable1PA/tasks=10-1", NsPerOp: 1050, AllocsPerOp: 90},
		{Name: "BenchmarkTable1PA/tasks=20-1", NsPerOp: 2600, AllocsPerOp: 200},
		{Name: "BenchmarkPAR/workers=4-1", NsPerOp: 5, AllocsPerOp: 2},
	}}
	oldPath, newPath := writeDoc(t, oldDoc), writeDoc(t, newDoc)

	var buf strings.Builder
	failed, err := runCompare(&buf, oldPath, newPath, 15)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// tasks=20 is +30% on ns/op: over the 15% threshold.
	if !failed {
		t.Errorf("runCompare failed=false, want true; output:\n%s", out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "FAIL:") {
		t.Errorf("output missing regression markers:\n%s", out)
	}
	if !strings.Contains(out, "new") || !strings.Contains(out, "gone") {
		t.Errorf("output missing new/gone rows:\n%s", out)
	}

	// A looser threshold passes the same pair of documents.
	buf.Reset()
	failed, err = runCompare(&buf, oldPath, newPath, 50)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Errorf("runCompare failed=true at threshold 50; output:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("unexpected REGRESSION mark at threshold 50:\n%s", buf.String())
	}
}

func TestRunCompareAllocRegression(t *testing.T) {
	// An allocs/op regression alone must fail the gate even when ns/op
	// improved — the allocation diet is guarded independently.
	oldPath := writeDoc(t, &Doc{Benchmarks: []Benchmark{
		{Name: "BenchmarkTable1PA/tasks=20-8", NsPerOp: 2000, AllocsPerOp: 100},
	}})
	newPath := writeDoc(t, &Doc{Benchmarks: []Benchmark{
		{Name: "BenchmarkTable1PA/tasks=20-8", NsPerOp: 1500, AllocsPerOp: 150},
	}})
	var buf strings.Builder
	failed, err := runCompare(&buf, oldPath, newPath, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Errorf("alloc regression not flagged; output:\n%s", buf.String())
	}
}

// TestParseRoundsFractionalNsPerOp: go test emits mean ns/op with a
// fractional tail for fast benchmarks (e.g. 96702534.46666667); the JSON
// must carry whole nanoseconds so refreshed BENCH_*.json files diff
// cleanly run to run.
func TestParseRoundsFractionalNsPerOp(t *testing.T) {
	cases := []struct {
		line string
		want float64
	}{
		{"BenchmarkServeLoad-8   15   96702534.46666667 ns/op", 96702534},
		{"BenchmarkFast-8   1000000   12.5 ns/op", 13}, // round half away from zero
		{"BenchmarkWhole-8   100   5000 ns/op", 5000},
	}
	for _, tc := range cases {
		b, ok := parseLine(tc.line)
		if !ok {
			t.Fatalf("parseLine(%q) rejected", tc.line)
		}
		if b.NsPerOp != tc.want {
			t.Errorf("parseLine(%q).NsPerOp = %v, want %v", tc.line, b.NsPerOp, tc.want)
		}
	}
}

// TestServeLoadReportShape pins the wire contract with cmd/paschedload,
// which emits this Doc layout with hand-mirrored structs: a paschedload
// report (including the cache-mode extras) must decode losslessly into our
// Doc, so `benchjson -compare` can diff serve-load runs.
func TestServeLoadReportShape(t *testing.T) {
	sample := `{
	 "goos": "linux",
	 "goarch": "amd64",
	 "pkg": "resched/cmd/paschedload",
	 "benchmarks": [{
	  "name": "ServeLoad/robust/c=6",
	  "iterations": 120,
	  "ns_per_op": 96702534,
	  "extra": {
	   "p50_ns": 91000000,
	   "p99_ns": 180000000,
	   "req_per_sec": 61.5,
	   "requests": 120,
	   "retries": 4,
	   "shed_responses": 2,
	   "terminal_errors": 0,
	   "cache_hits": 40,
	   "cache_warm_starts": 18,
	   "cache_misses": 62,
	   "cache_hit_ratio": 0.3333333333333333
	  }
	 }]
	}`
	doc := &Doc{}
	if err := json.Unmarshal([]byte(sample), doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("benchmarks = %d, want 1", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "ServeLoad/robust/c=6" || b.Iterations != 120 || b.NsPerOp != 96702534 {
		t.Fatalf("core fields mangled: %+v", b)
	}
	for _, key := range []string{
		"p50_ns", "p99_ns", "req_per_sec", "requests", "retries",
		"shed_responses", "terminal_errors",
		"cache_hits", "cache_warm_starts", "cache_misses", "cache_hit_ratio",
	} {
		if _, ok := b.Extra[key]; !ok {
			t.Fatalf("extra metric %q lost in decode", key)
		}
	}
	// And back out: a re-encode must keep the extras (compare reads them).
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"cache_hit_ratio"`) {
		t.Fatal("re-encode dropped the cache extras")
	}
}
