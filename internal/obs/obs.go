// Package obs is a zero-dependency observability layer for the scheduling
// pipeline: hierarchical spans on a monotonic clock, named counters and
// gauges, fixed-boundary log-bucket histograms with interpolated quantiles
// (Observe), a bounded flight recorder of structured events (Event), and
// exporters for the Chrome trace-event format (loadable in Perfetto or
// chrome://tracing), a flat metrics JSON with a human-readable summary
// table, and an events JSON. The sibling package obshttp mounts all of the
// exporters on a live net/http surface.
//
// The package is built for optional instrumentation of deterministic code:
// a nil *Trace is a valid receiver for every method and turns the whole
// layer into a no-op costing one pointer comparison, so hot paths can be
// instrumented unconditionally. Recording only observes wall-clock time and
// event counts — it never feeds back into scheduling decisions, which keeps
// traced and untraced runs byte-identical (TestTracingDeterminism at the
// repository root asserts this).
//
// Span taxonomy used by the schedulers: a root span per run (pa.run,
// par.run, isk.run), one child span per shrink-retry attempt or search
// iteration, and grandchildren for the individual phases, floorplan solver
// invocations and IS-k windows. See DESIGN.md §8.
package obs

import (
	"strings"
	"sync"
	"time"
)

// Arg is one key/value annotation attached to a span. Values are restricted
// by the constructors to strings, int64s, float64s and bools so every span
// serialises cleanly to JSON.
type Arg struct {
	Key string
	Val any
}

// Str annotates a span with a string value.
func Str(key, val string) Arg { return Arg{Key: key, Val: val} }

// Int annotates a span with an integer value.
func Int(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// Float annotates a span with a float value.
func Float(key string, val float64) Arg { return Arg{Key: key, Val: val} }

// Bool annotates a span with a boolean value.
func Bool(key string, val bool) Arg { return Arg{Key: key, Val: val} }

// Trace accumulates spans, counters, gauges, histograms and flight-recorder
// events for one run. The zero value is not usable; construct with New (or
// NewWithClock for deterministic exports). All methods are safe on a nil
// receiver and safe for concurrent use.
//
// A Trace is also a lane: a recording cursor that nests each Start under
// the innermost span still open on that same lane. Nesting is a sequential
// chain, so one goroutine records on a lane at a time; concurrent recorders
// (PA-R workers, solves sharing a daemon's trace) each take their own Lane
// over the shared store, and no recorder's End can close another's span.
type Trace struct {
	*store
	open int // index of the lane's innermost open span, -1 at root; guarded by mu
}

// store is the content every lane of one trace records into.
type store struct {
	mu sync.Mutex
	// clock returns the monotonic time since the trace epoch. time.Since
	// on the epoch captured by New reads the monotonic clock, so spans are
	// immune to wall-clock adjustments; tests substitute a fake clock for
	// reproducible exports.
	clock      func() time.Duration
	spans      []spanRecord
	counters   map[string]int64
	gauges     map[string]float64
	histograms map[string]*histogram
	// events is the flight-recorder ring (see events.go): append-grown to
	// defaultEventCapacity, then overwritten oldest-first with eventHead
	// pointing at the oldest record. eventSeq counts every event ever seen.
	events    []eventRecord
	eventHead int
	eventSeq  int64
}

// spanRecord is the internal storage of one span, indexed by start order.
type spanRecord struct {
	name   string
	parent int // index into spans, -1 for root spans
	depth  int
	start  time.Duration
	end    time.Duration // negative while open
	args   []Arg
}

// Span is a handle to an in-flight span on the lane that started it. A nil
// *Span (returned by a nil trace) accepts every method as a no-op.
type Span struct {
	tr *Trace
	id int
}

// New returns an empty trace whose clock starts now.
func New() *Trace {
	epoch := time.Now()
	return NewWithClock(func() time.Duration { return time.Since(epoch) })
}

// NewWithClock returns an empty trace reading monotonic offsets from the
// given clock instead of the real one. Injected clocks make every exporter
// byte-reproducible — the obshttp golden tests and the flight-recorder
// replay tooling depend on this — and must be monotone non-decreasing.
func NewWithClock(clock func() time.Duration) *Trace {
	return &Trace{
		store: &store{
			clock:      clock,
			counters:   make(map[string]int64),
			gauges:     make(map[string]float64),
			histograms: make(map[string]*histogram),
		},
		open: -1,
	}
}

// Enabled reports whether the trace records anything; callers use it to
// skip expensive argument construction (formatting a resource vector, say)
// when tracing is off.
func (t *Trace) Enabled() bool { return t != nil }

// Lane returns a new lane over t's store whose first Start nests under t's
// innermost open span. The caller hands it to one concurrent recorder; what
// that recorder starts and ends never moves t's own cursor. It returns nil
// when the trace is nil.
func (t *Trace) Lane() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Trace{store: t.store, open: t.open}
}

// Start opens a span nested under the lane's innermost open span. It
// returns nil (a valid no-op handle) when the trace is nil.
func (t *Trace) Start(name string, args ...Arg) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, depth := t.open, 0
	if parent >= 0 {
		depth = t.spans[parent].depth + 1
	}
	id := len(t.spans)
	t.spans = append(t.spans, spanRecord{
		name:   name,
		parent: parent,
		depth:  depth,
		start:  t.clock(),
		end:    -1,
		args:   args,
	})
	t.open = id
	return &Span{tr: t, id: id}
}

// Root returns a fresh lane over t's store with no span open, so its first
// Start is a root span and what nests under it stays on that lane. A
// long-lived recorder that owns a whole span tree (a daemon request, an
// online session) takes one. It returns nil when the trace is nil.
func (t *Trace) Root() *Trace {
	if t == nil {
		return nil
	}
	return &Trace{store: t.store, open: -1}
}

// StartRoot opens a parentless span as the first Start of a fresh lane, so
// spans started on t afterwards do not nest under it. Concurrent workers
// that want a root span of their own use it. It returns nil (a valid no-op
// handle) when the trace is nil.
func (t *Trace) StartRoot(name string, args ...Arg) *Span {
	return t.Root().Start(name, args...)
}

// End closes the span, attaching any final annotations (an outcome tag,
// say). Open descendants on the same lane that were never ended explicitly
// are closed at the same instant, so an early return that skips an inner
// End cannot corrupt the nesting. Ending a span twice is a no-op.
func (s *Span) End(args ...Arg) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := &t.spans[s.id]
	if rec.end >= 0 {
		return
	}
	now := t.clock()
	// Close the lane's open chain from the innermost span up to (and
	// including) this one. The chain walk is bounded by the nesting depth.
	for cur := t.open; cur >= 0; cur = t.spans[cur].parent {
		if t.spans[cur].end < 0 {
			t.spans[cur].end = now
		}
		if cur == s.id {
			t.open = t.spans[cur].parent
			break
		}
	}
	if rec.end < 0 {
		// The span was not on its lane's open chain (two goroutines shared
		// one lane); close it in place.
		rec.end = now
	}
	rec.args = append(rec.args, args...)
}

// Annotate attaches additional key/value pairs to an open span.
func (s *Span) Annotate(args ...Arg) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	rec := &s.tr.spans[s.id]
	rec.args = append(rec.args, args...)
}

// Count adds delta to the named counter.
func (t *Trace) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters[name] += delta
}

// SetGauge records the latest value of the named gauge.
func (t *Trace) SetGauge(name string, val float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gauges[name] = val
}

// SpanInfo is the read-only view of one recorded span.
type SpanInfo struct {
	// Name is the span label (e.g. "pa.phase3.regions").
	Name string
	// Parent is the index of the enclosing span in the snapshot slice, -1
	// for root spans.
	Parent int
	// Depth is the nesting level (0 for root spans).
	Depth int
	// Start and End are monotonic offsets from the trace epoch; End equals
	// the snapshot instant for spans still open when the snapshot is taken.
	Start, End time.Duration
	// Args holds the annotations in attachment order.
	Args []Arg
}

// Duration is the span length.
func (s SpanInfo) Duration() time.Duration { return s.End - s.Start }

// Snapshot is a consistent copy of a trace's content.
type Snapshot struct {
	// Spans lists every span in start order.
	Spans []SpanInfo
	// Counters and Gauges are copies of the named metrics.
	Counters map[string]int64
	Gauges   map[string]float64
	// Histograms holds the named distributions recorded through Observe.
	Histograms map[string]HistogramSnapshot
	// Events is the flight recorder's current content, oldest first;
	// EventsSeen counts every event recorded over the trace's lifetime, so
	// EventsSeen - len(Events) is the number already evicted from the ring.
	Events     []EventInfo
	EventsSeen int64
	// Taken is the clock offset at which the snapshot was captured; spans
	// still open are reported as ending here.
	Taken time.Duration
}

// Snapshot captures the current trace content. A nil trace yields an empty
// snapshot.
func (t *Trace) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{
			Counters:   map[string]int64{},
			Gauges:     map[string]float64{},
			Histograms: map[string]HistogramSnapshot{},
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	out := Snapshot{
		Spans:      make([]SpanInfo, len(t.spans)),
		Counters:   make(map[string]int64, len(t.counters)),
		Gauges:     make(map[string]float64, len(t.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(t.histograms)),
		Events:     t.eventsLocked(),
		EventsSeen: t.eventSeq,
		Taken:      now,
	}
	for i, rec := range t.spans {
		end := rec.end
		if end < 0 {
			end = now
		}
		out.Spans[i] = SpanInfo{
			Name:   rec.name,
			Parent: rec.parent,
			Depth:  rec.depth,
			Start:  rec.start,
			End:    end,
			Args:   append([]Arg(nil), rec.args...),
		}
	}
	for k, v := range t.counters {
		out.Counters[k] = v
	}
	for k, v := range t.gauges {
		out.Gauges[k] = v
	}
	for k, h := range t.histograms {
		out.Histograms[k] = h.snapshot()
	}
	return out
}

// Canonical strips everything in the snapshot that legitimately varies
// between two repetitions of the same deterministic workload, leaving
// exactly the content the determinism gates may compare with
// reflect.DeepEqual:
//
//   - spans are dropped entirely (their timestamps are wall-clock, and a
//     parallel search records its workers' lanes in goroutine arrival
//     order);
//   - the snapshot instant and every event timestamp are zeroed, keeping
//     event order, names, sequence numbers and args;
//   - histograms whose name ends in "_us" — the naming convention for
//     wall-clock microsecond distributions — are reduced to their
//     observation count, since the recorded durations are real time.
//
// Counters, gauges and value histograms (node counts, attempt counts,
// reconfiguration counts) pass through untouched: for a fixed seed and
// worker count they must be bit-identical across runs, and
// TestTracingDeterminism at the repository root asserts exactly that.
func (s Snapshot) Canonical() Snapshot {
	out := Snapshot{
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
		Events:     make([]EventInfo, len(s.Events)),
		EventsSeen: s.EventsSeen,
	}
	for k, h := range s.Histograms {
		if strings.HasSuffix(k, "_us") {
			out.Histograms[k] = HistogramSnapshot{Count: h.Count}
			continue
		}
		out.Histograms[k] = h
	}
	for i, ev := range s.Events {
		ev.Time = 0
		out.Events[i] = ev
	}
	return out
}
