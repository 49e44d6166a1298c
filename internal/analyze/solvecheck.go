package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SolveCheck flags packages that hand-assemble the cross-cutting option
// structs of more than one algorithm. A struct whose name ends in "Options"
// and that carries both a Budget and a Trace field is an option carrier for
// one solver family (sched.Options, sched.RandomOptions, isk.Options,
// solve.Options, ...); a package that builds two or more distinct carriers
// is re-implementing the dispatch the solve registry already centralises,
// and every such site is a place where a new cross-cutting concern (a budget
// kind, a trace field, a fault hook) must be threaded by hand. Drivers
// construct one solve.Options and call solve.Get(name).Solve; only the
// adapters in internal/solve (and the algorithm packages delegating to their
// own sub-solvers) translate between carriers.
var SolveCheck = &Analyzer{
	Name: "solvecheck",
	Doc:  "only the solve adapters may assemble cross-cutting option structs for more than one algorithm",
	Run:  runSolveCheck,
}

// solveCheckExempt lists the packages whose job is exactly this translation:
// the solve adapters themselves (the composite robust and exact solvers
// included), and sched, whose PA-R search runs PA inner runs and builds its
// own floorplan queries.
var solveCheckExempt = map[string]bool{
	"resched/internal/solve": true,
	"resched/internal/sched": true,
}

func runSolveCheck(pass *Pass) {
	if pass.Pkg != nil && solveCheckExempt[pass.Pkg.Path()] {
		return
	}
	// First construction site of each distinct carrier type, in file order,
	// so finding positions are reproducible.
	type site struct {
		pos  token.Pos
		name string
	}
	var order []site
	seen := map[string]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[lit]
			if !ok {
				return true
			}
			name, ok := optionCarrier(tv.Type)
			if !ok || seen[name] {
				return true
			}
			seen[name] = true
			order = append(order, site{lit.Pos(), name})
			return true
		})
	}
	if len(order) < 2 {
		return
	}
	names := make([]string, len(order))
	for i, s := range order {
		names[i] = s.name
	}
	for _, s := range order {
		pass.Reportf(s.pos,
			"package assembles cross-cutting option structs for more than one algorithm (%s); construct one solve.Options and dispatch through the solve registry instead",
			strings.Join(names, ", "))
	}
}

// optionCarrier reports whether t is a named struct type that carries
// cross-cutting solver options — its name ends in "Options" and it has both
// a Budget and a Trace field — returning its qualified display name.
func optionCarrier(t types.Type) (string, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if !strings.HasSuffix(obj.Name(), "Options") {
		return "", false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	var hasBudget, hasTrace bool
	for i := 0; i < st.NumFields(); i++ {
		switch st.Field(i).Name() {
		case "Budget":
			hasBudget = true
		case "Trace":
			hasTrace = true
		}
	}
	if !hasBudget || !hasTrace {
		return "", false
	}
	name := obj.Name()
	if obj.Pkg() != nil {
		name = obj.Pkg().Name() + "." + name
	}
	return name, true
}
