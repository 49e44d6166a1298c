package solve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The registry maps stable solver names to implementations. The built-in
// solvers register from this package's init, so every importer sees the
// same roster; additional solvers may register at program init time.
var (
	registryMu sync.RWMutex
	registry   = map[string]Solver{}
)

// Register adds a solver under its Name, decorated with the uniform
// observability wrapper (see instrument.go): every solver reachable
// through Get or List records request latency, result/error counters and
// budget-exhaustion events on the request's Trace without per-solver
// wiring. Register panics on an empty name or a duplicate registration:
// both are programmer errors at init time, and a silently replaced solver
// would make dispatch ambiguous.
func Register(s Solver) {
	name := s.Name()
	if name == "" {
		panic("solve: Register with empty solver name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("solve: Register called twice for solver %q", name))
	}
	registry[name] = instrumented{inner: s}
}

// Get resolves a solver by name. The error enumerates the registered
// names so CLI typos are self-explanatory.
func Get(name string) (Solver, error) {
	registryMu.RLock()
	s, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("solve: unknown solver %q (have %s)", name, strings.Join(List(), ", "))
	}
	return s, nil
}

// List returns the registered solver names in stable (sorted) order, the
// order every generated help text and registry iteration uses.
func List() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
