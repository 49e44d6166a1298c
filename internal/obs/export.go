package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format's traceEvents
// array. Timestamps and durations are microseconds, the unit the format
// specifies.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	// S scopes instant ("i") events; "t" renders them as thread-local
	// markers in the viewer.
	S    string         `json:"s,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container flavour of the format, which
// chrome://tracing and Perfetto both load directly.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTrace exports the trace as Chrome trace-event JSON: one
// complete ("X") event per span and one instant ("i") event per
// flight-recorder entry, all on a single pid/tid so viewers infer the span
// hierarchy from time containment and render the events as markers on the
// same track. A nil or empty trace writes a valid file with no events.
// Counters, gauges and histograms are not part of the event stream;
// WriteMetricsJSON carries them.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	snap := t.Snapshot()
	doc := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(snap.Spans)+len(snap.Events)+1),
		DisplayTimeUnit: "ms",
	}
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "process_name",
		Ph:   "M",
		Pid:  1,
		Tid:  1,
		Args: map[string]any{"name": "resched"},
	})
	argMap := func(args []Arg) map[string]any {
		if len(args) == 0 {
			return nil
		}
		out := make(map[string]any, len(args))
		for _, a := range args {
			out[a.Key] = a.Val
		}
		return out
	}
	for _, sp := range snap.Spans {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: sp.Name,
			Ph:   "X",
			Ts:   micros(sp.Start),
			Dur:  micros(sp.End - sp.Start),
			Pid:  1,
			Tid:  1,
			Args: argMap(sp.Args),
		})
	}
	for _, ev := range snap.Events {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: ev.Name,
			Ph:   "i",
			S:    "t",
			Ts:   micros(ev.Time),
			Pid:  1,
			Tid:  1,
			Args: argMap(ev.Args),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// SpanStats aggregates every span sharing one name. The quantiles are
// exact, computed by sorting every recorded duration at export time — spans
// are bounded per run, so the sort is cheap relative to serialisation.
type SpanStats struct {
	Count   int64   `json:"count"`
	TotalUS float64 `json:"total_us"`
	MinUS   float64 `json:"min_us"`
	MaxUS   float64 `json:"max_us"`
	P50US   float64 `json:"p50_us"`
	P90US   float64 `json:"p90_us"`
	P99US   float64 `json:"p99_us"`
}

// HistogramStats is the exported per-distribution aggregate in MetricsDoc:
// the snapshot's exact count/sum/min/max and sparse buckets plus the three
// interpolated quantiles the dashboards read.
type HistogramStats struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// MetricsDoc is the flat metrics document WriteMetricsJSON emits: the
// counters and gauges verbatim, per-name span aggregates, per-name
// histogram aggregates, and the flight-recorder totals. Maps serialise
// with sorted keys (encoding/json guarantees this), so the export is
// byte-stable across runs of a deterministic workload.
type MetricsDoc struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Spans      map[string]SpanStats      `json:"spans"`
	Histograms map[string]HistogramStats `json:"histograms"`
	// EventsSeen and EventsDropped summarise the flight recorder; the event
	// bodies themselves are WriteEventsJSON's document.
	EventsSeen    int64 `json:"events_seen"`
	EventsDropped int64 `json:"events_dropped"`
}

// exactQuantile reads the q-th quantile from an ascending-sorted slice
// using the nearest-rank method (1-based rank ceil(q*n), matching the
// histogram's rank convention).
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))) + 1
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Metrics computes the flat metrics view of the trace.
func (t *Trace) Metrics() MetricsDoc {
	snap := t.Snapshot()
	doc := MetricsDoc{
		Counters:      snap.Counters,
		Gauges:        snap.Gauges,
		Spans:         make(map[string]SpanStats, 16),
		Histograms:    make(map[string]HistogramStats, len(snap.Histograms)),
		EventsSeen:    snap.EventsSeen,
		EventsDropped: snap.EventsSeen - int64(len(snap.Events)),
	}
	durs := make(map[string][]float64, 16)
	for _, sp := range snap.Spans {
		us := micros(sp.End - sp.Start)
		st, ok := doc.Spans[sp.Name]
		if !ok {
			st = SpanStats{MinUS: us, MaxUS: us}
		}
		st.Count++
		st.TotalUS += us
		if us < st.MinUS {
			st.MinUS = us
		}
		if us > st.MaxUS {
			st.MaxUS = us
		}
		doc.Spans[sp.Name] = st
		durs[sp.Name] = append(durs[sp.Name], us)
	}
	for name, ds := range durs {
		sort.Float64s(ds)
		st := doc.Spans[name]
		st.P50US = exactQuantile(ds, 0.50)
		st.P90US = exactQuantile(ds, 0.90)
		st.P99US = exactQuantile(ds, 0.99)
		doc.Spans[name] = st
	}
	for name, h := range snap.Histograms {
		doc.Histograms[name] = HistogramStats{
			Count:   h.Count,
			Sum:     h.Sum,
			Min:     h.Min,
			Max:     h.Max,
			P50:     h.Quantile(0.50),
			P90:     h.Quantile(0.90),
			P99:     h.Quantile(0.99),
			Buckets: h.Buckets,
		}
	}
	return doc
}

// WriteMetricsJSON exports the flat metrics document. A nil trace writes an
// empty (but valid) document.
func (t *Trace) WriteMetricsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Metrics())
}

// WriteFiles writes the Chrome trace, the metrics document and the events
// document to the given paths, skipping each empty path. It is the one
// artefact writer behind every command's -trace, -metrics and -events
// flags. A nil trace writes valid empty documents.
func (t *Trace) WriteFiles(tracePath, metricsPath, eventsPath string) error {
	for _, f := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{tracePath, t.WriteChromeTrace},
		{metricsPath, t.WriteMetricsJSON},
		{eventsPath, t.WriteEventsJSON},
	} {
		if f.path == "" {
			continue
		}
		out, err := os.Create(f.path)
		if err != nil {
			return err
		}
		if err := f.write(out); err != nil {
			_ = out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders a human-readable table of the span aggregates
// (sorted by total time, longest first) followed by the histogram
// distributions, the counters and gauges in name order, and the tail of
// the flight recorder (the most recent events, newest last).
func (t *Trace) WriteSummary(w io.Writer) error {
	snap := t.Snapshot()
	doc := t.Metrics()
	names := make([]string, 0, len(doc.Spans))
	for name := range doc.Spans {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := doc.Spans[names[i]], doc.Spans[names[j]]
		if a.TotalUS > b.TotalUS {
			return true
		}
		if b.TotalUS > a.TotalUS {
			return false
		}
		return names[i] < names[j]
	})
	if _, err := fmt.Fprintf(w, "%-28s %8s %12s %12s %12s %12s\n",
		"span", "count", "total", "mean", "min", "max"); err != nil {
		return err
	}
	usDur := func(us float64) time.Duration {
		return time.Duration(us * 1e3).Round(time.Microsecond)
	}
	for _, name := range names {
		st := doc.Spans[name]
		if _, err := fmt.Fprintf(w, "%-28s %8d %12v %12v %12v %12v\n",
			name, st.Count, usDur(st.TotalUS), usDur(st.TotalUS/float64(st.Count)),
			usDur(st.MinUS), usDur(st.MaxUS)); err != nil {
			return err
		}
	}
	var hists []string
	for name := range doc.Histograms {
		hists = append(hists, name)
	}
	sort.Strings(hists)
	if len(hists) > 0 {
		if _, err := fmt.Fprintf(w, "%-28s %8s %12s %12s %12s %12s %12s\n",
			"histogram", "count", "p50", "p90", "p99", "min", "max"); err != nil {
			return err
		}
	}
	for _, name := range hists {
		h := doc.Histograms[name]
		if _, err := fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %12.3f %12.3f %12.3f\n",
			name, h.Count, h.P50, h.P90, h.P99, h.Min, h.Max); err != nil {
			return err
		}
	}
	var ctrs []string
	for name := range doc.Counters {
		ctrs = append(ctrs, name)
	}
	sort.Strings(ctrs)
	for _, name := range ctrs {
		if _, err := fmt.Fprintf(w, "%-28s %8d\n", name, doc.Counters[name]); err != nil {
			return err
		}
	}
	var gs []string
	for name := range doc.Gauges {
		gs = append(gs, name)
	}
	sort.Strings(gs)
	for _, name := range gs {
		if _, err := fmt.Fprintf(w, "%-28s %8.3f\n", name, doc.Gauges[name]); err != nil {
			return err
		}
	}
	// Flight-recorder tail: the most recent events, newest last, so a hung
	// run's summary ends with what it was doing.
	const summaryEventTail = 10
	events := snap.Events
	if len(events) > summaryEventTail {
		events = events[len(events)-summaryEventTail:]
	}
	if len(events) > 0 {
		if _, err := fmt.Fprintf(w, "events (last %d of %d):\n",
			len(events), snap.EventsSeen); err != nil {
			return err
		}
	}
	for _, ev := range events {
		line := fmt.Sprintf("  %12v #%d %s", ev.Time.Round(time.Microsecond), ev.Seq, ev.Name)
		for _, a := range ev.Args {
			line += fmt.Sprintf(" %s=%v", a.Key, a.Val)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
