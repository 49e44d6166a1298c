package faultinject

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// liveHooks are the Set methods that production code calls, keyed by name.
// A fault that fires through none of them is armable but can never fire.
var liveHooks = map[string]func(*Set){
	"FloorplanSolve": func(s *Set) { s.FloorplanSolve() },
	"ServeDispatch":  func(s *Set) { s.ServeDispatch() },
	"LateArrival":    func(s *Set) { s.LateArrival() },
}

// Every Fault* name can be armed, fires through a live hook, and, when it
// is count-limited, stops being armed once it is used up: a fault left
// armed for good would keep every request tagged as fault-injected (the
// schedule cache, for one, bypasses itself for such requests).
func TestEveryFaultFiresThroughALiveHook(t *testing.T) {
	cases := []struct {
		name string
		arm  func(*Set)
		hook string
		// counted faults are armed for one firing and then disarm.
		counted bool
	}{
		{FaultFloorplanInfeasible, func(s *Set) { s.ForceFloorplanInfeasible(1) }, "FloorplanSolve", true},
		{FaultSolverLatency, func(s *Set) { s.SetSolverLatency(time.Millisecond, NewClock()) }, "FloorplanSolve", false},
		{FaultServeQueueFull, func(s *Set) { s.ForceQueueFull(1) }, "ServeDispatch", true},
		{FaultLateArrival, func(s *Set) { s.ForceLateArrival(1, 5) }, "LateArrival", true},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.name] = true
		t.Run(c.name, func(t *testing.T) {
			s := New()
			c.arm(s)
			if !slices.Contains(s.Armed(), c.name) {
				t.Fatalf("Armed = %v after arming %s", s.Armed(), c.name)
			}
			liveHooks[c.hook](s)
			if s.Fired(c.name) == 0 {
				t.Fatalf("%s did not fire through %s", c.name, c.hook)
			}
			if c.counted && slices.Contains(s.Armed(), c.name) {
				t.Fatalf("%s still armed after its one firing: Armed = %v", c.name, s.Armed())
			}
		})
	}
	for _, name := range faultNames(t) {
		if !covered[name] {
			t.Errorf("fault %q has no row: say which live hook fires it", name)
		}
	}
	for hook := range liveHooks {
		if !calledOutsidePackage(t, hook) {
			t.Errorf("hook %s has no caller outside faultinject and its tests", hook)
		}
	}
}

// faultNames returns the values of the package's Fault* string constants.
func faultNames(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "faultinject.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if !strings.HasPrefix(id.Name, "Fault") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				names = append(names, v)
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no Fault* constants in faultinject.go")
	}
	return names
}

// calledOutsidePackage reports whether a non-test Go file of the module,
// outside this package, calls a method named hook.
func calledOutsidePackage(t *testing.T, hook string) bool {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	call := []byte("." + hook + "(")
	found := false
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || found {
			return err
		}
		if d.IsDir() {
			if path == self || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		found = bytes.Contains(src, call)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}
