// Package arch describes the target architecture of the scheduling problem:
// a set of identical processor cores tightly coupled with a partially
// reconfigurable FPGA (§III of the paper). It provides the ZedBoard
// (Zynq XC7Z020) preset used in the paper's evaluation and a column-based
// fabric geometry consumed by the floorplanner.
package arch

import (
	"errors"
	"fmt"

	"resched/internal/resources"
)

// Architecture is the full description of the target platform.
//
// The single reconfiguration controller of the paper (ICAP) is implicit:
// schedulers must never overlap two reconfigurations in time.
type Architecture struct {
	// Name identifies the platform (e.g. "ZedBoard XC7Z020").
	Name string
	// Processors is |P|, the number of identical processor cores.
	Processors int
	// Reconfigurators is the number of independent reconfiguration
	// controllers. The paper's architecture has exactly one (the ICAP);
	// ref [8] generalises to several, which this model supports as an
	// extension. Zero means one.
	Reconfigurators int
	// RecFreq is the reconfiguration throughput in bits per tick
	// (recFreq of the paper; 1 tick = 1 µs).
	RecFreq int64
	// Bits is the per-resource-unit configuration size table (bit_r).
	Bits resources.BitsPerUnit
	// MaxRes is the device resource capacity (maxRes_r). When the
	// architecture carries a Fabric, MaxRes must equal Fabric.Capacity().
	MaxRes resources.Vector
	// Fabric is the physical column layout used for floorplanning.
	// It may be nil for purely capacity-based experiments.
	Fabric *Fabric
}

// Validate checks internal consistency of the architecture description.
func (a *Architecture) Validate() error {
	if a.Processors < 0 {
		return fmt.Errorf("arch %q: negative processor count %d", a.Name, a.Processors)
	}
	if a.RecFreq <= 0 {
		return fmt.Errorf("arch %q: non-positive reconfiguration frequency %d", a.Name, a.RecFreq)
	}
	if a.Reconfigurators < 0 {
		return fmt.Errorf("arch %q: negative reconfigurator count %d", a.Name, a.Reconfigurators)
	}
	if !a.MaxRes.NonNegative() {
		return fmt.Errorf("arch %q: negative resource capacity %v", a.Name, a.MaxRes)
	}
	if a.Fabric != nil {
		if err := a.Fabric.Validate(); err != nil {
			return fmt.Errorf("arch %q: %w", a.Name, err)
		}
		if got := a.Fabric.Capacity(); got != a.MaxRes {
			return fmt.Errorf("arch %q: MaxRes %v does not match fabric capacity %v", a.Name, a.MaxRes, got)
		}
	}
	return nil
}

// BitstreamBits estimates the partial bitstream size for a region with the
// given resource requirements (eq. (1)).
func (a *Architecture) BitstreamBits(v resources.Vector) int64 {
	return a.Bits.BitstreamBits(v)
}

// ReconfTime estimates the reconfiguration time in ticks for a region with
// the given requirements (eq. (2)), rounding up to a whole tick.
func (a *Architecture) ReconfTime(v resources.Vector) int64 {
	bits := a.BitstreamBits(v)
	if bits == 0 {
		return 0
	}
	return (bits + a.RecFreq - 1) / a.RecFreq
}

// ReconfiguratorCount returns the effective number of reconfiguration
// controllers (at least one).
func (a *Architecture) ReconfiguratorCount() int {
	if a.Reconfigurators <= 1 {
		return 1
	}
	return a.Reconfigurators
}

var errNoFabric = errors.New("arch: architecture has no fabric")

// RequireFabric returns the fabric or an error when the architecture is
// capacity-only.
func (a *Architecture) RequireFabric() (*Fabric, error) {
	if a.Fabric == nil {
		return nil, errNoFabric
	}
	return a.Fabric, nil
}
