// Command benchjson converts `go test -bench` text output (read on stdin)
// into a structured JSON document, so benchmark results can be committed
// and diffed across PRs. `make bench` pipes the BenchmarkTable1* suite
// through it to produce BENCH_table1.json.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkTable1' -benchmem -cpu 2 . | benchjson -o BENCH_table1.json
//	benchjson -compare [-threshold 15] old.json new.json
//
// -compare prints per-benchmark ns/op and allocs/op deltas between two
// documents (matching names with the GOMAXPROCS suffix stripped, so
// results from machines with different core counts still pair up) and
// exits non-zero when any benchmark regressed by more than -threshold
// percent on either metric — the regression gate `make benchcmp` runs
// before a PR.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra holds any additional custom metrics (e.g. "makespan" from
	// b.ReportMetric), keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Doc is the JSON document layout.
type Doc struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GOMAXPROCS is the value the benchmarks ran with, read from the -N
	// name suffix go test appends (0 when the results disagree), so a
	// baseline says which machine shape its numbers belong to.
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.Bool("compare", false, "compare two benchmark JSON files: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 15, "with -compare: fail when ns/op or allocs/op regresses by more than this percentage")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two arguments: old.json new.json"))
		}
		failed, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fatal(err)
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	doc, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks\n", len(doc.Benchmarks))
}

// parse reads `go test -bench` output: header lines (goos/goarch/pkg/cpu)
// followed by result lines of the form
//
//	BenchmarkName/sub-8   100   123456 ns/op   512 B/op   7 allocs/op
//
// Non-benchmark lines (PASS, ok, test log output) are ignored.
func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			// Output covering several packages names the first one.
			if doc.Pkg == "" {
				doc.Pkg = strings.TrimPrefix(line, "pkg: ")
			}
			continue
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, ok := parseLine(line)
		if !ok {
			continue
		}
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	for i, b := range doc.Benchmarks {
		if _, procs := splitProcs(b.Name); i == 0 {
			doc.GOMAXPROCS = procs
		} else if procs != doc.GOMAXPROCS {
			doc.GOMAXPROCS = 0
			break
		}
	}
	return doc, sc.Err()
}

// parseLine parses one benchmark result line into its metrics.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	// Minimum shape: name, iterations, value, unit.
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	// The remainder alternates value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			// go test reports mean ns/op, which is fractional for fast
			// benchmarks; a nanosecond is already below timer resolution,
			// so round to integer ns to keep the JSON stable and diffable.
			b.NsPerOp = math.Round(val)
		case "B/op":
			b.BytesPerOp = int64(val)
		case "allocs/op":
			b.AllocsPerOp = int64(val)
		default:
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[unit] = val
		}
	}
	return b, true
}

// normalizeName strips the trailing -N GOMAXPROCS suffix go test appends
// (BenchmarkFoo/sub-8 → BenchmarkFoo/sub), so documents produced on
// machines with different core counts still pair up.
func normalizeName(name string) string {
	base, _ := splitProcs(name)
	return base
}

// splitProcs splits a benchmark name into its base and the GOMAXPROCS of
// its -N suffix. go test omits the suffix at GOMAXPROCS=1, so a name
// without one reports 1.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name, 1
	}
	suffix := name[i+1:]
	if suffix == "" {
		return name, 1
	}
	for _, r := range suffix {
		if r < '0' || r > '9' {
			return name, 1
		}
	}
	procs, err := strconv.Atoi(suffix)
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}

// loadDoc reads a benchmark JSON document written by this command.
func loadDoc(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &Doc{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// pctDelta returns the relative change in percent; a zero baseline with a
// non-zero new value counts as +100% (an appearance is a regression).
func pctDelta(oldV, newV float64) float64 {
	if oldV == 0 {
		if newV == 0 {
			return 0
		}
		return 100
	}
	return 100 * (newV - oldV) / oldV
}

// runCompare prints the per-benchmark deltas between two documents and
// reports whether any benchmark regressed beyond the threshold.
func runCompare(w io.Writer, oldPath, newPath string, threshold float64) (failed bool, err error) {
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		return false, err
	}
	newDoc, err := loadDoc(newPath)
	if err != nil {
		return false, err
	}
	if oldDoc.GOMAXPROCS != newDoc.GOMAXPROCS && oldDoc.GOMAXPROCS != 0 && newDoc.GOMAXPROCS != 0 {
		fmt.Fprintf(w, "note: baseline ran at GOMAXPROCS=%d, new run at GOMAXPROCS=%d\n",
			oldDoc.GOMAXPROCS, newDoc.GOMAXPROCS)
	}
	oldBy := map[string]Benchmark{}
	for _, b := range oldDoc.Benchmarks {
		oldBy[normalizeName(b.Name)] = b
	}
	fmt.Fprintf(w, "%-44s %14s %14s %8s %10s %10s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	matched := map[string]bool{}
	for _, nb := range newDoc.Benchmarks {
		key := normalizeName(nb.Name)
		ob, ok := oldBy[key]
		if !ok {
			fmt.Fprintf(w, "%-44s %14s %14.0f %8s %10s %10d %8s\n",
				key, "-", nb.NsPerOp, "new", "-", nb.AllocsPerOp, "new")
			continue
		}
		matched[key] = true
		nsDelta := pctDelta(ob.NsPerOp, nb.NsPerOp)
		allocDelta := pctDelta(float64(ob.AllocsPerOp), float64(nb.AllocsPerOp))
		mark := ""
		if nsDelta > threshold || allocDelta > threshold {
			mark = "  REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %+7.1f%% %10d %10d %+7.1f%%%s\n",
			key, ob.NsPerOp, nb.NsPerOp, nsDelta, ob.AllocsPerOp, nb.AllocsPerOp, allocDelta, mark)
	}
	for _, ob := range oldDoc.Benchmarks {
		key := normalizeName(ob.Name)
		if !matched[key] {
			fmt.Fprintf(w, "%-44s %14.0f %14s %8s %10d %10s %8s\n",
				key, ob.NsPerOp, "-", "gone", ob.AllocsPerOp, "-", "gone")
		}
	}
	if failed {
		fmt.Fprintf(w, "FAIL: at least one benchmark regressed more than %.0f%%\n", threshold)
	}
	return failed, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
