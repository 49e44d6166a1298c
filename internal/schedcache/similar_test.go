package schedcache

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"resched/internal/arch"
	"resched/internal/benchgen"
	"resched/internal/floorplan"
	"resched/internal/schedule"
	"resched/internal/solve"
	"resched/internal/taskgraph"
)

// signatureOfFmt is the fmt-built signature signatureOf replaced: the
// oracle that pins the byte stream, and so every FNV value, in place.
func signatureOfFmt(g *taskgraph.Graph) *Signature {
	sig := &Signature{tasks: make([]uint64, 0, g.N())}
	var b strings.Builder
	for _, t := range g.Tasks {
		b.Reset()
		b.WriteString("t|")
		b.WriteString(t.Name)
		for _, im := range t.Impls {
			fmt.Fprintf(&b, "|i|%s|%d|%d|%v", im.Name, int(im.Kind), im.Time, im.Res)
		}
		sig.tasks = append(sig.tasks, fnv64a([]byte(b.String())))
	}
	edges, comm := g.EdgesComm()
	sig.edges = make([]uint64, 0, len(edges))
	for i, e := range edges {
		b.Reset()
		fmt.Fprintf(&b, "e|%d|%d|%d", e[0], e[1], comm[i])
		sig.edges = append(sig.edges, fnv64a([]byte(b.String())))
	}
	slices.Sort(sig.tasks)
	slices.Sort(sig.edges)
	return sig
}

// Delta is the full multiset symmetric-difference distance, the oracle
// the bounded deltaWithin is checked against.
func (s *Signature) Delta(o *Signature) int {
	return multisetDelta(s.tasks, o.tasks) + multisetDelta(s.edges, o.edges)
}

// multisetDelta merges two sorted slices and counts the unmatched
// elements on both sides.
func multisetDelta(a, b []uint64) int {
	i, j, d := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			i++
			d++
		default:
			j++
			d++
		}
	}
	return d + (len(a) - i) + (len(b) - j)
}

// TestSignatureMatchesFmtOracle: the strconv-built signature hashes the
// same bytes as the fmt one on every Suite(2016) graph, plus graphs with
// negative resources, communication costs and an out-of-range kind.
func TestSignatureMatchesFmtOracle(t *testing.T) {
	suite, err := benchgen.Suite(2016)
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*taskgraph.Graph, 0, len(suite)+1)
	for _, e := range suite {
		graphs = append(graphs, e.Graph)
	}
	odd := taskgraph.New("odd")
	odd.AddTask("a|b", taskgraph.Implementation{Name: "", Kind: taskgraph.ImplKind(7), Time: -3})
	odd.AddTask("é", taskgraph.Implementation{Name: "x y", Kind: taskgraph.HW, Time: 1 << 40,
		Res: [3]int{-1, 0, 123456}})
	if err := odd.AddEdgeComm(0, 1, 99); err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, odd)
	for i, g := range graphs {
		got, want := signatureOf(g), signatureOfFmt(g)
		if !slices.Equal(got.tasks, want.tasks) || !slices.Equal(got.edges, want.edges) {
			t.Fatalf("graph %d (%s): signature differs from the fmt oracle", i, g.Name)
		}
	}
}

// TestDeltaWithinIsExact: on random multisets the bounded delta equals
// Delta whenever Delta is within the bound and declines otherwise.
func TestDeltaWithinIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func() []uint64 {
		s := make([]uint64, rng.Intn(12))
		for i := range s {
			s[i] = uint64(rng.Intn(8))
		}
		slices.Sort(s)
		return s
	}
	for i := 0; i < 20000; i++ {
		a := &Signature{tasks: draw(), edges: draw()}
		b := &Signature{tasks: draw(), edges: draw()}
		full := a.Delta(b)
		bound := rng.Intn(20)
		d, ok := a.deltaWithin(b, bound)
		if ok != (full <= bound) || (ok && d != full) {
			t.Fatalf("deltaWithin(bound %d) = %d, %v; Delta = %d\na=%v\nb=%v", bound, d, ok, full, a, b)
		}
	}
}

// referenceNearest is the unbounded scan nearest replaced: every entry's
// full delta, ties broken on the hex key.
func referenceNearest(c *Cache, arch Digest, sig *Signature) (*entry, int, bool) {
	limit := c.threshold(sig.Size())
	var best *entry
	bestDelta := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.arch != arch || len(e.res.Placements) == 0 || e.sig == nil {
			continue
		}
		d := sig.Delta(e.sig)
		if d > limit {
			continue
		}
		if best == nil || d < bestDelta ||
			(d == bestDelta && e.key.String() < best.key.String()) {
			best, bestDelta = e, d
		}
	}
	return best, bestDelta, best != nil
}

// referenceSameInstance is sameInstance with the hex-string tie-break.
func referenceSameInstance(c *Cache, instance Digest) (*entry, bool) {
	var best *entry
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.instance != instance || e.res.Schedule == nil {
			continue
		}
		if best == nil ||
			e.res.Schedule.Makespan < best.res.Schedule.Makespan ||
			(e.res.Schedule.Makespan == best.res.Schedule.Makespan &&
				e.key.String() < best.key.String()) {
			best = e
		}
	}
	return best, best != nil
}

// perturb returns a copy of g with k random implementation times bumped.
func perturb(rng *rand.Rand, g *taskgraph.Graph, k int) *taskgraph.Graph {
	p := g.Clone()
	for i := 0; i < k; i++ {
		t := p.Tasks[rng.Intn(len(p.Tasks))]
		t.Impls[rng.Intn(len(t.Impls))].Time += 1 + rng.Int63n(3)
	}
	return p
}

// TestProbesMatchReferenceScan fills randomized caches with base graphs
// and their perturbations, then probes them with perturbed and unrelated
// graphs: nearest and sameInstance must return the same entry (and delta)
// as the unbounded, string-compared scans. Makespans are drawn from a
// small set, so sameInstance's key tie-break is exercised too.
func TestProbesMatchReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := arch.ZedBoard()
	other := arch.MicroZed7010()
	base := make([]*taskgraph.Graph, 12)
	for i := range base {
		g, err := benchgen.Generate(benchgen.Config{Tasks: 8 + rng.Intn(20), Seed: int64(300 + i)})
		if err != nil {
			t.Fatal(err)
		}
		base[i] = g
	}
	mkEntry := func(g *taskgraph.Graph, ar *arch.Architecture, solver string, seed int64) *entry {
		req := &solve.Request{Graph: g, Arch: ar}
		req.Seed, req.MaxIterations = seed, 4
		keys := computeKeys(req, solver)
		sch := schedule.New(g, ar)
		sch.Makespan = int64(100 + rng.Intn(3))
		res := &solve.Result{Schedule: sch, Makespan: sch.Makespan}
		if rng.Intn(4) > 0 {
			res.Placements = []floorplan.Placement{{X0: 0, X1: 1, Y0: 0, Y1: 1}}
		}
		return &entry{key: keys.full, instance: keys.instance, arch: keys.arch, sig: signatureOf(g), res: res}
	}
	var near, warm, same int
	for round := 0; round < 40; round++ {
		c := New(64)
		if round%3 == 0 {
			c.warmDelta = 1 + rng.Intn(6)
		}
		for i := 0; i < 48; i++ {
			g := base[rng.Intn(len(base))]
			if rng.Intn(2) == 0 {
				g = perturb(rng, g, 1+rng.Intn(3))
			}
			ar := a
			if rng.Intn(6) == 0 {
				ar = other
			}
			solver := "pa"
			if rng.Intn(2) == 0 {
				solver = "par"
			}
			c.store(mkEntry(g, ar, solver, int64(rng.Intn(4))))
		}
		for q := 0; q < 24; q++ {
			var g *taskgraph.Graph
			switch rng.Intn(3) {
			case 0:
				g = perturb(rng, base[rng.Intn(len(base))], 1+rng.Intn(4))
			case 1:
				g = base[rng.Intn(len(base))]
			default:
				var err error
				g, err = benchgen.Generate(benchgen.Config{Tasks: 8 + rng.Intn(20), Seed: int64(900 + rng.Intn(50))})
				if err != nil {
					t.Fatal(err)
				}
			}
			probe := mkEntry(g, a, "pa", 0)
			ge, gd, gok := c.nearest(probe.arch, probe.sig)
			we, wd, wok := referenceNearest(c, probe.arch, probe.sig)
			if ge != we || gd != wd || gok != wok {
				t.Fatalf("round %d probe %d: nearest = (%p, %d, %v), reference = (%p, %d, %v)",
					round, q, ge, gd, gok, we, wd, wok)
			}
			gs, gsok := c.sameInstance(probe.instance)
			ws, wsok := referenceSameInstance(c, probe.instance)
			if gs != ws || gsok != wsok {
				t.Fatalf("round %d probe %d: sameInstance = %p, reference = %p", round, q, gs, ws)
			}
			if gok {
				near++
				if gd > 0 {
					warm++
				}
			}
			if gsok {
				same++
			}
		}
	}
	// The comparison must have seen real matches, not only empty answers.
	if near < 50 || warm < 20 || same < 50 {
		t.Fatalf("too few matches to compare: nearest %d (%d at delta > 0), sameInstance %d", near, warm, same)
	}
}

// TestDigestLessMatchesHexOrder: comparing digest bytes orders keys as
// their hex strings do, including digests that differ only in the last
// byte, and the probes break ties on it that way.
func TestDigestLessMatchesHexOrder(t *testing.T) {
	var x, y Digest
	for i := range x {
		x[i] = byte(i * 7)
	}
	y = x
	for _, pair := range [][2]byte{{0x00, 0x01}, {0x0f, 0x10}, {0x9f, 0xa0}, {0xfe, 0xff}, {0x42, 0x42}} {
		x[len(x)-1], y[len(y)-1] = pair[0], pair[1]
		if got, want := x.less(y), x.String() < y.String(); got != want {
			t.Errorf("%x vs %x: less = %v, hex order %v", pair[0], pair[1], got, want)
		}
		if got, want := y.less(x), y.String() < x.String(); got != want {
			t.Errorf("%x vs %x: less = %v, hex order %v", pair[1], pair[0], got, want)
		}
	}

	// Two entries of one instance and one makespan, keyed by digests that
	// differ in the last byte only, stored in both orders.
	g, err := benchgen.Generate(benchgen.Config{Tasks: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.ZedBoard()
	keys := computeKeys(&solve.Request{Graph: g, Arch: a}, "pa")
	mk := func(last byte) *entry {
		k := keys.full
		k[len(k)-1] = last
		sch := schedule.New(g, a)
		sch.Makespan = 50
		return &entry{key: k, instance: keys.instance, arch: keys.arch, sig: signatureOf(g),
			res: &solve.Result{Schedule: sch, Makespan: 50,
				Placements: []floorplan.Placement{{X0: 0, X1: 1, Y0: 0, Y1: 1}}}}
	}
	for _, order := range [][2]byte{{0x0a, 0xa0}, {0xa0, 0x0a}} {
		c := New(4)
		c.store(mk(order[0]))
		c.store(mk(order[1]))
		ent, ok := c.sameInstance(keys.instance)
		if !ok || ent.key[len(ent.key)-1] != 0x0a {
			t.Fatalf("sameInstance picked %v, want the 0x0a key", ent.key)
		}
		ent, d, ok := c.nearest(keys.arch, signatureOf(g))
		if !ok || d != 0 || ent.key[len(ent.key)-1] != 0x0a {
			t.Fatalf("nearest picked %v (delta %d), want the 0x0a key", ent.key, d)
		}
	}
}
