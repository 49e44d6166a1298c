package analyze

import (
	"go/ast"
	"strings"
)

// BudgetLoop enforces the resource-bound contract of the solver packages:
// a `for { ... }` loop with no condition never terminates on its own, so its
// body must poll the budget — Budget.Check, Charge or Cancelled — either
// directly or through a callee that (transitively, across packages) does.
// Without a poll, a pathological instance turns a bounded solve into a hang
// that the degradation ladder can never interrupt.
//
// The callee analysis uses the module-wide index (Module.PollsBudget), so a
// loop whose body only calls sched.runPipeline still counts as polling when
// runPipeline charges the budget three packages away. The check is scoped to
// the solver packages (sched, isk, floorplan) plus the
// online engine, whose epoch re-plan loop runs a full solve per turn and must
// stay interruptible between epochs: elsewhere an unbounded loop is an
// ordinary event loop, not a solve.
var BudgetLoop = &Analyzer{
	Name: "budgetloop",
	Doc:  "unbounded loops in solver packages must poll the budget",
	Run:  runBudgetLoop,
}

// budgetLoopScope lists the packages (by final import-path element) whose
// unbounded loops must stay budget-aware: the solvers, and the online engine
// whose epoch loop dispatches a solve per iteration.
var budgetLoopScope = map[string]bool{
	"sched": true, "isk": true, "floorplan": true,
	"online": true,
}

func runBudgetLoop(pass *Pass) {
	path := pass.Pkg.Path()
	if !budgetLoopScope[LastPathElem(path)] && !strings.HasPrefix(path, "fixture/") {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond != nil {
				return true
			}
			if !loopPollsBudget(pass, loop) {
				pass.Reportf(loop.For,
					"unbounded loop never polls the budget: no Budget.Check, Charge or Cancelled reachable from the body (directly or through a module callee)")
			}
			return true
		})
	}
}

// loopPollsBudget scans the loop body (descending into nested statements and
// function literals, which the loop starts or invokes) for a direct poll or
// a call to a module function that transitively polls.
func loopPollsBudget(pass *Pass, loop *ast.ForStmt) bool {
	polled := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if polled {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if IsBudgetPoll(pass.Info, call) {
			polled = true
			return false
		}
		if fn, ok := CalleeOf(pass.Info, call); ok && fn != nil && pass.Module.PollsBudget(fn) {
			polled = true
			return false
		}
		return true
	})
	return polled
}
