// Package fixture seeds solvecheck violations: a driver that hand-assembles
// the option carriers of several solver families instead of building one
// solve.Options and dispatching through the registry. The carrier types are
// declared locally (fixtures cannot import module packages) but mirror the
// real shape the analyzer matches on: a name ending in "Options" with both
// a Budget and a Trace field.
package fixture

// Budget and Trace stand in for the real cross-cutting concern types.
type Budget struct{}
type Trace struct{}

// Options mirrors a deterministic solver's carrier (sched.Options).
type Options struct {
	ModuleReuse bool
	Budget      *Budget
	Trace       *Trace
}

// RandomOptions mirrors a second family's carrier (sched.RandomOptions).
type RandomOptions struct {
	Seed   int64
	Budget *Budget
	Trace  *Trace
}

// LadderOptions mirrors a third family's carrier (isk.Options).
type LadderOptions struct {
	Retries int
	Budget  *Budget
	Trace   *Trace
}

// ReportOptions ends in "Options" but carries no cross-cutting concerns, so
// constructing it alongside one real carrier is fine.
type ReportOptions struct {
	Width int
}

// badHandRolledDriver assembles two distinct carriers — the per-algorithm
// dispatch the solve registry exists to centralise.
func badHandRolledDriver(bud *Budget, tr *Trace) (Options, RandomOptions) {
	po := Options{ModuleReuse: true, Budget: bud, Trace: tr} // want "more than one algorithm"
	ro := RandomOptions{Seed: 7, Budget: bud, Trace: tr}     // want "more than one algorithm"
	return po, ro
}

// goodRepeatedSameFamily re-uses a family already constructed above; only
// the first construction site of each distinct carrier is reported.
func goodRepeatedSameFamily() Options {
	return Options{ModuleReuse: false}
}

// goodNonCarrier constructs a type that merely ends in "Options"; without
// Budget and Trace fields it is not a cross-cutting carrier.
func goodNonCarrier() ReportOptions {
	return ReportOptions{Width: 80}
}

// suppressedDemo shows the escape hatch for a sanctioned translation site.
func suppressedDemo() LadderOptions {
	//reschedvet:ignore solvecheck sanctioned adapter demonstration
	return LadderOptions{Retries: 1}
}
