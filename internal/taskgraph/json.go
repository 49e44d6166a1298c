package taskgraph

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"resched/internal/resources"
)

// jsonGraph is the on-disk representation of a Graph.
type jsonGraph struct {
	Name  string     `json:"name"`
	Tasks []jsonTask `json:"tasks"`
	Edges [][2]int   `json:"edges"`
	// Comm holds per-edge communication times parallel to Edges; omitted
	// when every edge communicates for free.
	Comm []int64 `json:"comm,omitempty"`
}

type jsonTask struct {
	Name  string     `json:"name"`
	Impls []jsonImpl `json:"impls"`
}

type jsonImpl struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Time int64  `json:"time"`
	CLB  int    `json:"clb,omitempty"`
	BRAM int    `json:"bram,omitempty"`
	DSP  int    `json:"dsp,omitempty"`
}

// MarshalJSON encodes the graph as a stable JSON document.
func (g *Graph) MarshalJSON() ([]byte, error) {
	edges, comm := g.EdgesComm()
	jg := jsonGraph{Name: g.Name, Edges: edges}
	if jg.Edges == nil {
		jg.Edges = [][2]int{}
	}
	if slices.ContainsFunc(comm, func(c int64) bool { return c > 0 }) {
		jg.Comm = comm
	}
	for _, t := range g.Tasks {
		jt := jsonTask{Name: t.Name}
		for _, im := range t.Impls {
			jt.Impls = append(jt.Impls, jsonImpl{
				Name: im.Name,
				Kind: im.Kind.String(),
				Time: im.Time,
				CLB:  im.Res[resources.CLB],
				BRAM: im.Res[resources.BRAM],
				DSP:  im.Res[resources.DSP],
			})
		}
		jg.Tasks = append(jg.Tasks, jt)
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes a graph previously produced by MarshalJSON.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	*g = *New(jg.Name)
	for _, jt := range jg.Tasks {
		var impls []Implementation
		for _, ji := range jt.Impls {
			var kind ImplKind
			switch ji.Kind {
			case "HW":
				kind = HW
			case "SW":
				kind = SW
			default:
				return fmt.Errorf("taskgraph: unknown impl kind %q", ji.Kind)
			}
			impls = append(impls, Implementation{
				Name: ji.Name,
				Kind: kind,
				Time: ji.Time,
				Res:  resources.Vec(ji.CLB, ji.BRAM, ji.DSP),
			})
		}
		g.AddTask(jt.Name, impls...)
	}
	if jg.Comm != nil && len(jg.Comm) != len(jg.Edges) {
		return fmt.Errorf("taskgraph: %d comm entries for %d edges", len(jg.Comm), len(jg.Edges))
	}
	// Duplicate edges keep their first position and the largest comm, as
	// AddEdgeComm would, but through a decode-local index: the input is
	// untrusted, and AddEdgeComm's adjacency scan costs the smaller endpoint
	// degree per edge, which a dense input makes superlinear.
	type slot struct{ si, pi int }
	seen := make(map[[2]int]slot, len(jg.Edges))
	for i, e := range jg.Edges {
		var comm int64
		if jg.Comm != nil {
			comm = jg.Comm[i]
		}
		if err := g.checkEdge(e[0], e[1], comm); err != nil {
			return err
		}
		from, to := e[0], e[1]
		if at, dup := seen[e]; dup {
			if comm > g.succComm[from][at.si] {
				g.succComm[from][at.si] = comm
				g.predComm[to][at.pi] = comm
			}
			continue
		}
		seen[e] = slot{len(g.succ[from]), len(g.pred[to])}
		g.appendEdge(from, to, comm)
	}
	return nil
}

// Write encodes the graph as indented JSON to w.
func (g *Graph) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// Read decodes a graph from JSON and validates it: any graph Read accepts
// satisfies the §III structural assumptions (Validate), so schedulers can
// consume loaded instances without re-checking.
func Read(r io.Reader) (*Graph, error) {
	var g Graph
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("taskgraph: decoding: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("taskgraph: loaded graph invalid: %w", err)
	}
	return &g, nil
}
