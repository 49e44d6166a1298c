package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTrace builds the fixed workload behind the golden-file test: a PA
// run shape with two phases, a nested floorplan call, counters, histogram
// observations, and flight-recorder events.
func goldenTrace() *Trace {
	tr := fakeClock(100 * time.Microsecond)
	run := tr.Start("pa.run")
	att := tr.Start("pa.attempt", Int("attempt", 0), Str("maxres", "{53200 220 140}"))
	p1 := tr.Start("pa.phase1.implselect")
	p1.End()
	p8 := tr.Start("pa.phase8.floorplan")
	fp := tr.Start("floorplan.solve", Str("method", "backtracking"), Int("regions", 3))
	tr.Event("par.improved", Int("iteration", 4), Float("makespan", 1180))
	fp.End(Str("outcome", "feasible"), Int("nodes", 17))
	p8.End()
	att.End(Str("outcome", "feasible"))
	run.End()
	tr.Count("pa.retries", 0)
	tr.Count("floorplan.calls", 1)
	tr.SetGauge("par.capacity_factor", 1)
	for _, nodes := range []float64{3, 17, 44, 17, 260} {
		tr.Observe("isk.window_nodes", nodes)
	}
	tr.Observe("pa.attempts", 1)
	tr.Event("budget.exhausted", Str("reason", "node-cap"))
	return tr
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test -run Golden -update ./internal/obs): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome.golden.json", buf.Bytes())

	// Independently of the exact bytes, the export must be a valid
	// trace-event document: parse it back and check the span events.
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
			if ev.Dur <= 0 {
				t.Errorf("event %s has non-positive dur %v", ev.Name, ev.Dur)
			}
		}
	}
	if complete != 5 {
		t.Errorf("%d complete events, want 5 (one per span)", complete)
	}
}

func TestMetricsJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.golden.json", buf.Bytes())

	var doc MetricsDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Counters["floorplan.calls"] != 1 {
		t.Errorf("floorplan.calls = %d, want 1", doc.Counters["floorplan.calls"])
	}
	if doc.Spans["pa.run"].Count != 1 {
		t.Errorf("pa.run aggregate missing: %+v", doc.Spans)
	}
}

func TestMetricsExportDeterminism(t *testing.T) {
	// Two identical workloads must export byte-identical metrics: map key
	// order must not leak (encoding/json sorts keys, this pins it).
	render := func() string {
		var buf bytes.Buffer
		if err := goldenTrace().WriteMetricsJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("metrics export is not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestWriteSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"pa.run", "floorplan.solve", "pa.retries", "par.capacity_factor"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
	// Longest span first: the root must precede the leaf phases.
	if strings.Index(out, "pa.run") > strings.Index(out, "pa.phase1.implselect") {
		t.Errorf("summary not sorted by total time:\n%s", out)
	}
}

// TestWriteFiles: each named artefact holds exactly what its writer
// produces, and an empty path writes nothing.
func TestWriteFiles(t *testing.T) {
	tr := goldenTrace()
	dir := t.TempDir()
	tracePath, eventsPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "events.json")
	if err := tr.WriteFiles(tracePath, "", eventsPath); err != nil {
		t.Fatal(err)
	}
	for path, write := range map[string]func(*bytes.Buffer) error{
		tracePath:  func(b *bytes.Buffer) error { return tr.WriteChromeTrace(b) },
		eventsPath: func(b *bytes.Buffer) error { return tr.WriteEventsJSON(b) },
	} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := write(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s differs from its writer's output", filepath.Base(path))
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("wrote %d files, want 2 (the metrics path was empty)", len(entries))
	}
	var nilTrace *Trace
	if err := nilTrace.WriteFiles("", "", ""); err != nil {
		t.Fatalf("nil trace with no paths: %v", err)
	}
}
