package arch

import (
	"strings"
	"testing"
	"testing/quick"

	"resched/internal/resources"
)

func TestZedBoardPreset(t *testing.T) {
	a := ZedBoard()
	if err := a.Validate(); err != nil {
		t.Fatalf("ZedBoard invalid: %v", err)
	}
	if a.Processors != 2 {
		t.Errorf("Processors = %d, want 2 (dual-core Cortex-A9)", a.Processors)
	}
	// Capacities should be within a few percent of the real XC7Z020.
	want := resources.Vec(13200, 150, 240)
	if a.MaxRes != want {
		t.Errorf("MaxRes = %v, want %v", a.MaxRes, want)
	}
	if a.Fabric == nil {
		t.Fatal("ZedBoard has no fabric")
	}
	if got := a.Fabric.Capacity(); got != a.MaxRes {
		t.Errorf("fabric capacity %v != MaxRes %v", got, a.MaxRes)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Architecture {
		a := ZedBoard()
		a.Fabric = nil
		return a
	}
	cases := []struct {
		name string
		mut  func(*Architecture)
	}{
		{"negative processors", func(a *Architecture) { a.Processors = -1 }},
		{"zero recfreq", func(a *Architecture) { a.RecFreq = 0 }},
		{"negative capacity", func(a *Architecture) { a.MaxRes[0] = -5 }},
	}
	for _, c := range cases {
		a := base()
		c.mut(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid architecture", c.name)
		}
	}
	// Fabric/MaxRes mismatch.
	a := ZedBoard()
	a.MaxRes[0]++
	if err := a.Validate(); err == nil {
		t.Error("Validate accepted MaxRes/fabric mismatch")
	}
}

func TestReconfTime(t *testing.T) {
	a := ZedBoard()
	if got := a.ReconfTime(resources.Vector{}); got != 0 {
		t.Errorf("ReconfTime(zero) = %d, want 0", got)
	}
	// One CLB slice: 2327 bits at 3200 bits/tick → ceil = 1 tick.
	if got := a.ReconfTime(resources.Vec(1, 0, 0)); got != 1 {
		t.Errorf("ReconfTime(1 CLB) = %d, want 1", got)
	}
	// 1000 slices: 2 327 000 bits / 3200 = 727.18… → 728 ticks.
	if got := a.ReconfTime(resources.Vec(1000, 0, 0)); got != 728 {
		t.Errorf("ReconfTime(1000 CLB) = %d, want 728", got)
	}
}

// Property: reconfiguration time is monotone in the region requirements and
// sub-additive relative to splitting a region in two (ceil rounding).
func TestReconfTimeMonotone(t *testing.T) {
	a := ZedBoard()
	clamp := func(v resources.Vector) resources.Vector {
		for k := range v {
			c := v[k] % 4096
			if c < 0 {
				c = -c
			}
			v[k] = c
		}
		return v
	}
	f := func(v, d resources.Vector) bool {
		v, d = clamp(v), clamp(d)
		return a.ReconfTime(v.Add(d)) >= a.ReconfTime(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRequireFabric(t *testing.T) {
	a := ZedBoard()
	if _, err := a.RequireFabric(); err != nil {
		t.Errorf("RequireFabric on ZedBoard: %v", err)
	}
	a.Fabric = nil
	if _, err := a.RequireFabric(); err == nil {
		t.Error("RequireFabric accepted a fabric-less architecture")
	}
}

func TestFabricRectResources(t *testing.T) {
	f := NewZynqFabric()
	// Whole device rectangle equals capacity.
	if got := f.RectResources(0, f.Width(), 0, f.Rows); got != f.Capacity() {
		t.Errorf("full-rect resources %v != capacity %v", got, f.Capacity())
	}
	// Empty rectangles contain nothing.
	if got := f.RectResources(3, 3, 0, f.Rows); !got.Zero() {
		t.Errorf("empty-width rect has resources %v", got)
	}
	if got := f.RectResources(0, 2, 1, 1); !got.Zero() {
		t.Errorf("empty-height rect has resources %v", got)
	}
}

// Property: rectangle resources are additive when splitting on a column.
func TestRectResourcesAdditive(t *testing.T) {
	f := NewZynqFabric()
	w, r := f.Width(), f.Rows
	check := func(x0, xm, x1, y0, y1 uint8) bool {
		a, m, b := int(x0)%w, int(xm)%w, int(x1)%w
		if a > m {
			a, m = m, a
		}
		if m > b {
			m, b = b, m
		}
		if a > m {
			a, m = m, a
		}
		lo, hi := int(y0)%r, int(y1)%r
		if lo > hi {
			lo, hi = hi, lo
		}
		hi++ // non-empty row span
		left := f.RectResources(a, m, lo, hi)
		right := f.RectResources(m, b, lo, hi)
		return left.Add(right) == f.RectResources(a, b, lo, hi)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestFabricValidate(t *testing.T) {
	f := NewZynqFabric()
	if err := f.Validate(); err != nil {
		t.Fatalf("valid fabric rejected: %v", err)
	}
	bad := *f
	bad.Rows = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero rows accepted")
	}
	bad = *f
	bad.Columns = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty columns accepted")
	}
	bad = *f
	bad.Columns = append([]resources.Kind{resources.Kind(7)}, f.Columns...)
	if err := bad.Validate(); err == nil {
		t.Error("invalid column kind accepted")
	}
	bad = *f
	bad.UnitsPerCell[resources.BRAM] = 0
	if err := bad.Validate(); err == nil {
		t.Error("kind with zero units per cell accepted")
	}
}

func TestFabricString(t *testing.T) {
	f := &Fabric{Rows: 2, Columns: []resources.Kind{resources.CLB, resources.CLB, resources.BRAM, resources.DSP}}
	f.UnitsPerCell[resources.CLB] = 100
	f.UnitsPerCell[resources.BRAM] = 10
	f.UnitsPerCell[resources.DSP] = 20
	s := f.String()
	for _, frag := range []string{"2 rows:", "C×2", "B", "D"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
}
