package taskgraph

import (
	"bytes"
	"testing"

	"resched/internal/resources"
)

// FuzzLoadGraphJSON fuzzes the JSON loader with arbitrary bytes. Three
// properties are enforced: the loader never panics; any graph it accepts
// satisfies Validate (the §III structural assumptions) and survives a
// marshal/reload round trip unchanged in shape; and its per-adjacency
// communication times agree with EdgeComm before and after the round trip.
// The checked-in seed corpus under testdata/fuzz runs as part of the
// ordinary test suite.
func FuzzLoadGraphJSON(f *testing.F) {
	// A small valid graph, produced by the marshaller itself.
	g := New("seed")
	g.AddTask("a",
		Implementation{Name: "a_sw", Kind: SW, Time: 100},
		Implementation{Name: "a_hw", Kind: HW, Time: 10, Res: resources.Vec(100, 1, 0)})
	g.AddTask("b", Implementation{Name: "b_sw", Kind: SW, Time: 200})
	if err := g.AddEdgeComm(0, 1, 7); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","tasks":[{"name":"t","impls":[{"name":"i","kind":"XX","time":1}]}]}`))
	f.Add([]byte(`{"name":"x","tasks":[],"edges":[[0,1]]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		if verr := loaded.Validate(); verr != nil {
			t.Fatalf("Read accepted a graph that fails Validate: %v", verr)
		}
		checkCommAlignment(t, loaded)
		var out bytes.Buffer
		if werr := loaded.Write(&out); werr != nil {
			t.Fatalf("accepted graph does not marshal: %v", werr)
		}
		again, rerr := Read(&out)
		if rerr != nil {
			t.Fatalf("round trip rejected: %v", rerr)
		}
		if again.N() != loaded.N() || len(again.Edges()) != len(loaded.Edges()) {
			t.Fatalf("round trip changed shape: %d/%d tasks, %d/%d edges",
				loaded.N(), again.N(), len(loaded.Edges()), len(again.Edges()))
		}
		checkCommAlignment(t, again)
	})
}
