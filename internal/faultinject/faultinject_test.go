package faultinject

import (
	"reflect"
	"testing"
	"time"
)

func TestNilSetIsInert(t *testing.T) {
	var s *Set
	if _, late := s.LateArrival(); s.FloorplanSolve() || s.ServeDispatch() || late {
		t.Fatal("nil set fired a fault")
	}
	if got := s.Armed(); len(got) != 0 {
		t.Fatalf("nil set Armed = %v", got)
	}
	if s.Fired(FaultFloorplanInfeasible) != 0 {
		t.Fatal("nil set reports fired faults")
	}
}

func TestForceFloorplanInfeasibleCountsDown(t *testing.T) {
	s := New()
	s.ForceFloorplanInfeasible(2)
	if !s.FloorplanSolve() || !s.FloorplanSolve() {
		t.Fatal("armed solves not stolen")
	}
	if s.FloorplanSolve() {
		t.Fatal("third solve stolen after arming 2")
	}
	if n := s.Fired(FaultFloorplanInfeasible); n != 2 {
		t.Fatalf("Fired = %d, want 2", n)
	}
}

func TestForceForever(t *testing.T) {
	s := New()
	s.ForceFloorplanInfeasible(-1)
	for i := 0; i < 10; i++ {
		if !s.FloorplanSolve() {
			t.Fatalf("solve %d not stolen with n=-1", i)
		}
	}
	if s.ServeDispatch() {
		t.Fatal("admission stolen without arming")
	}
}

func TestSolverLatencyAdvancesClock(t *testing.T) {
	clk := NewClock()
	start := clk.Now()
	s := New()
	s.SetSolverLatency(50*time.Millisecond, clk)
	s.FloorplanSolve()
	s.FloorplanSolve()
	if got := clk.Now().Sub(start); got != 100*time.Millisecond {
		t.Fatalf("clock advanced %v, want 100ms", got)
	}
	if n := s.Fired(FaultSolverLatency); n != 2 {
		t.Fatalf("latency fired %d times, want 2", n)
	}
}

func TestClockDeterministicEpochAndAdvance(t *testing.T) {
	a, b := NewClock(), NewClock()
	if !a.Now().Equal(b.Now()) {
		t.Fatal("two fresh clocks disagree")
	}
	a.Advance(time.Second)
	if got := a.Now().Sub(b.Now()); got != time.Second {
		t.Fatalf("advance moved clock by %v, want 1s", got)
	}
	a.Advance(-time.Hour)
	if a.Now().Before(b.Now()) {
		t.Fatal("negative advance moved the clock backward")
	}
}

func TestArmedIsSortedAndLive(t *testing.T) {
	s := New()
	clk := NewClock()
	s.SetSolverLatency(time.Millisecond, clk)
	s.ForceLateArrival(3, 10)
	s.ForceFloorplanInfeasible(1)
	want := []string{FaultFloorplanInfeasible, FaultLateArrival, FaultSolverLatency}
	if got := s.Armed(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Armed = %v, want %v", got, want)
	}
	s.FloorplanSolve() // consumes the single armed floorplan fault
	want = []string{FaultLateArrival, FaultSolverLatency}
	if got := s.Armed(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Armed after consuming floorplan fault = %v, want %v", got, want)
	}
}

func TestServeDispatchForcesQueueFull(t *testing.T) {
	var nilSet *Set
	if nilSet.ServeDispatch() {
		t.Fatal("nil set forced queue-full")
	}
	s := New()
	if s.ServeDispatch() {
		t.Fatal("unarmed set forced queue-full")
	}
	s.ForceQueueFull(2)
	if !s.ServeDispatch() || !s.ServeDispatch() {
		t.Fatal("armed admissions not stolen")
	}
	if s.ServeDispatch() {
		t.Fatal("third admission stolen after arming 2")
	}
	if n := s.Fired(FaultServeQueueFull); n != 2 {
		t.Fatalf("Fired = %d, want 2", n)
	}
}

func TestArmedIncludesServeFaults(t *testing.T) {
	s := New()
	s.ForceQueueFull(1)
	s.ForceLateArrival(1, 5)
	want := []string{FaultLateArrival, FaultServeQueueFull}
	if got := s.Armed(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Armed = %v, want %v", got, want)
	}
}
