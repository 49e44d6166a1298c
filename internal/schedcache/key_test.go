package schedcache

import (
	"testing"

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
// whose key is machine-independent are pinned; par with Workers=0 and
// robust fold in GOMAXPROCS and are covered by the stability test below.
func TestKeyGoldenVectors(t *testing.T) {
	cases := []struct {
		name   string
		solver string
		mut    func(*solve.Options)
		want   string
	}{
		{
			name: "pa-defaults", solver: "pa", mut: func(o *solve.Options) {},
			want: "ac3f76b6dff0b272ee04bbe0c89bd9d7224353e7b6502df2cbd38db5b90b8ca4",
		},
		{
			name: "pa-reuse", solver: "pa",
			mut:  func(o *solve.Options) { o.ModuleReuse = true },
			want: "3f843e0440a618691bf2d8185bf2d246b13b664ba509cef30fbe5e3c46361db1",
		},
		{
			name: "par-explicit-workers", solver: "par",
			mut: func(o *solve.Options) {
				o.Seed = 3
				o.Workers = 2
				o.MaxIterations = 8
			},
			want: "5f640f5d46b95a18dba9e45a51641f310e7251c506be98fb8df2cf7bde5ced65",
		},
		{
			name: "is5", solver: "is5",
			mut:  func(o *solve.Options) { o.MaxNodes = 1000 },
			want: "1f3132a67997efec8cd02ee2f6122c70e4cb79127c0040501adf9168151c274e",
		},
		{
			name: "exact", solver: "exact",
			mut:  func(o *solve.Options) { o.MaxNodes = 5000 },
			want: "a659bc6a18660578bd783885882753f09c4a50acf24e77de521c5e4e6db20b74",
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
	req.MaxNodes = 123
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

// TestKeyStableWithinProcess: machine-dependent keys (robust folds in
// GOMAXPROCS) must still be deterministic within one process.
func TestKeyStableWithinProcess(t *testing.T) {
	req := goldenRequest(t)
	a := Key(req, "robust")
	b := Key(goldenRequest(t), "robust")
	if a != b {
		t.Fatalf("robust key unstable: %s vs %s", a, b)
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
