package schedcache

import (
	"runtime"
	"testing"
	"time"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/solve"
)

// goldenRequest is the fixed instance behind the golden key vectors:
// suite-style graph (10 tasks, seed 42) on the ZedBoard architecture.
func goldenRequest(tb testing.TB) *solve.Request {
	tb.Helper()
	g, err := benchgen.Generate(benchgen.Config{Tasks: 10, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	return &solve.Request{Graph: g, Arch: arch.ZedBoard()}
}

// TestKeyGoldenVectors pins the canonical key format: if any of these hex
// digests change, the canonical encoding changed and keyVersion must be
// bumped (and these vectors re-pinned) in the same commit. Only solvers
// whose key is machine-independent are pinned; par and robust with
// Workers=0 fold in GOMAXPROCS and are covered by the stability test below.
func TestKeyGoldenVectors(t *testing.T) {
	cases := []struct {
		name   string
		solver string
		mut    func(*solve.Options)
		want   string
	}{
		{
			name: "pa-defaults", solver: "pa", mut: func(o *solve.Options) {},
			want: "32db56dbcfc8f6151d64fcba35bd8e740f315f66175adb3856d6630ff8458c56",
		},
		{
			name: "pa-reuse", solver: "pa",
			mut:  func(o *solve.Options) { o.ModuleReuse = true },
			want: "03bbf42acdf9bf25b3853c0a530cbcc1f58cc5418d8e46eae9f1f204d4bf9b0f",
		},
		{
			name: "par-explicit-workers", solver: "par",
			mut: func(o *solve.Options) {
				o.Seed = 3
				o.Workers = 2
				o.MaxIterations = 8
			},
			want: "fbb252e1a139439b0cb02484086d0932801da3c2773a20e22741f09a4e9f61b5",
		},
		{
			name: "is5", solver: "is5",
			mut:  func(o *solve.Options) { o.SkipFloorplan = true },
			want: "24dd7f38fa3b11134204fc50805f644b1fcda7b1286b143c3694d217c30b3ab2",
		},
		{
			name: "exact", solver: "exact",
			mut:  func(o *solve.Options) { o.ModuleReuse = true },
			want: "36c850836e028b97e2e43fffe37636ac0b790d3a1fce8d6905dc6d8526ad44fd",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := goldenRequest(t)
			tc.mut(&req.Options)
			got := Key(req, tc.solver)
			if got != tc.want {
				t.Fatalf("key drifted:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestKeyIgnoresUnreadOptions: options a solver never reads must not move
// its key — that is what lets, e.g., every PA request share one entry
// regardless of seed.
func TestKeyIgnoresUnreadOptions(t *testing.T) {
	req := goldenRequest(t)
	base := Key(req, "pa")
	req.Seed = 99
	req.Workers = 7
	req.MaxIterations = 1000
	req.TimeBudget = time.Second
	got := Key(req, "pa")
	if got != base {
		t.Fatalf("pa key moved on unread options: %s vs %s", got, base)
	}
}

// TestKeySensitivity: fields a solver does read must move its key.
func TestKeySensitivity(t *testing.T) {
	req := goldenRequest(t)
	req.Seed, req.Workers, req.MaxIterations = 3, 2, 8
	base := Key(req, "par")
	for name, mut := range map[string]func(*solve.Request){
		"seed":    func(r *solve.Request) { r.Seed = 4 },
		"workers": func(r *solve.Request) { r.Workers = 3 },
		"maxiter": func(r *solve.Request) { r.MaxIterations = 9 },
		"reuse":   func(r *solve.Request) { r.ModuleReuse = true },
		"graph":   func(r *solve.Request) { r.Graph.Tasks[0].Impls[0].Time++ },
		"arch":    func(r *solve.Request) { r.Arch.Processors++ },
		"solver":  func(r *solve.Request) {},
	} {
		r := goldenRequest(t)
		r.Seed, r.Workers, r.MaxIterations = 3, 2, 8
		mut(r)
		solver := "par"
		if name == "solver" {
			solver = "robust"
		}
		got := Key(r, solver)
		if got == base {
			t.Errorf("%s: key did not move", name)
		}
	}
}

// TestKeyStableWithinProcess: machine-dependent keys (robust with Workers=0
// folds in GOMAXPROCS) must still be deterministic within one process.
func TestKeyStableWithinProcess(t *testing.T) {
	req := goldenRequest(t)
	a := Key(req, "robust")
	b := Key(goldenRequest(t), "robust")
	if a != b {
		t.Fatalf("robust key unstable: %s vs %s", a, b)
	}
	// The ladder's PA-R rung runs at the request's Workers, so Workers=0
	// keys as its resolved value and an explicit value moves the key.
	req.Workers = runtime.GOMAXPROCS(0)
	if got := Key(req, "robust"); got != a {
		t.Errorf("robust key with Workers=GOMAXPROCS %s, with Workers=0 %s", got, a)
	}
	req.Workers++
	if got := Key(req, "robust"); got == a {
		t.Error("robust key ignores Workers")
	}
}

// TestSignatureDelta pins the similarity semantics the warm-start
// threshold relies on: a single-field perturbation costs exactly 2, a
// structural edit costs much more, and delta is symmetric.
func TestSignatureDelta(t *testing.T) {
	g, err := benchgen.Generate(benchgen.Config{Tasks: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	base := signatureOf(g)
	if d := base.Delta(base); d != 0 {
		t.Fatalf("self delta = %d, want 0", d)
	}

	perturbed := g.Clone()
	perturbed.Tasks[3].Impls[0].Time += 2
	psig := signatureOf(perturbed)
	if d := base.Delta(psig); d != 2 {
		t.Fatalf("one-field perturbation delta = %d, want 2", d)
	}
	if d := psig.Delta(base); d != 2 {
		t.Fatalf("delta not symmetric: %d", d)
	}

	smaller, err := benchgen.Generate(benchgen.Config{Tasks: 19, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ssig := signatureOf(smaller)
	limit := New(1).threshold(base.Size())
	if d := base.Delta(ssig); d <= limit {
		t.Fatalf("structural edit delta = %d, want > threshold %d", d, limit)
	}
}
