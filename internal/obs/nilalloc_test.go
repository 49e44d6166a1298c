package obs

import "testing"

// TestNilTraceZeroAllocs pins the nil-trace overhead contract: every
// recording call on a nil *Trace must be a single pointer comparison with
// zero heap allocations, so production code can call the instruments
// unconditionally. The one caveat is documented here as an assertion:
// constructing event args (the variadic []Arg and the interface boxing
// inside Str/Int/Float) is the *caller's* cost and happens before the nil
// check can run — hot paths that attach args guard with Enabled(), and
// that guarded idiom is zero-alloc too.
func TestNilTraceZeroAllocs(t *testing.T) {
	var tr *Trace
	for name, fn := range map[string]func(){
		"Count":     func() { tr.Count("x", 1) },
		"SetGauge":  func() { tr.SetGauge("x", 0.5) },
		"Observe":   func() { tr.Observe("x", 17) },
		"Event":     func() { tr.Event("x") },
		"StartEnd":  func() { sp := tr.Start("x"); sp.End() },
		"StartRoot": func() { sp := tr.StartRoot("x"); sp.End() },
		"Lane":      func() { sp := tr.Lane().Start("x"); sp.End() },
		"Root":      func() { sp := tr.Root().Start("x"); sp.End() },
		"Enabled":   func() { _ = tr.Enabled() },
		"EnabledGuardedEvent": func() {
			if tr.Enabled() {
				tr.Event("x", Str("a", "b"), Int("c", 3))
			}
		},
	} {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("nil trace %s: %v allocs/op, want 0", name, got)
		}
	}
}
