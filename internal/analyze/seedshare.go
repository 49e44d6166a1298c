package analyze

import (
	"go/ast"
	"go/types"
)

// SeedShare flags goroutine launches (`go func() { ... }()`) whose function
// literal captures a *rand.Rand or rand.Source declared outside the literal.
// math/rand generators are not safe for concurrent use, and — worse for
// this repository — sharing one across goroutines makes the draw order
// depend on goroutine scheduling, which destroys PA-R's fixed-seed
// reproducibility. The PA-R search gives each worker a private generator
// seeded from mixSeed (internal/sched/random.go); new concurrent code must
// do the same.
var SeedShare = &Analyzer{
	Name: "seedshare",
	Doc:  "goroutines must own a private *rand.Rand, not capture a shared one",
	Run:  runSeedShare,
}

// seedShareExempt lists packages allowed to spawn goroutines without this
// check: no randomness flows through them, and their internal goroutines
// (budget timers, trace writers) would only produce noise findings.
var seedShareExempt = map[string]bool{
	"resched/internal/budget": true,
	"resched/internal/obs":    true,
}

func runSeedShare(pass *Pass) {
	if pass.Pkg != nil && seedShareExempt[pass.Pkg.Path()] {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			// One finding per captured variable per literal, at first use.
			reported := map[*types.Var]bool{}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := pass.Info.Uses[id].(*types.Var)
				if !ok || reported[v] {
					return true
				}
				// Declared inside the literal (parameter or local): the
				// goroutine owns it.
				if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
					return true
				}
				if !isRandType(v.Type()) {
					return true
				}
				reported[v] = true
				pass.Reportf(id.Pos(),
					"goroutine captures %s (%s) declared outside the literal; a shared generator makes the draw order depend on goroutine scheduling — derive a private per-goroutine *rand.Rand instead (see mixSeed in internal/sched)",
					v.Name(), v.Type())
				return true
			})
			return true
		})
	}
}

// isRandType reports whether t is *rand.Rand, rand.Rand or a
// rand.Source/Source64 from math/rand or math/rand/v2.
func isRandType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "math/rand", "math/rand/v2":
	default:
		return false
	}
	switch obj.Name() {
	case "Rand", "Source", "Source64":
		return true
	}
	return false
}
