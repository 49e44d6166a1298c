package taskgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"resched/internal/canonjson"
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
	return g.build(&jg)
}

// build turns a decoded document into g. It is the one build step behind
// both decoders, encoding/json's (UnmarshalJSON) and the canonical
// reader's (ReadCanonical), so they agree on every graph and every error.
func (g *Graph) build(jg *jsonGraph) error {
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
// consume loaded instances without re-checking. Like encoding/json's
// Decoder, it decodes the first JSON value and ignores what follows it.
func Read(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		// Replay the bytes and then the failure, so the decoder decides, as
		// it always did, whether the value ended before the read failed.
		return decodeJSON(io.MultiReader(bytes.NewReader(data), errReader{err}))
	}
	return Decode(data)
}

// Decode is Read over a byte slice. The canonical JSON that MarshalJSON
// emits is read in one pass (ReadCanonical); any other input goes through
// encoding/json (decodeJSON). Either way Decode accepts, returns and
// rejects exactly what decodeJSON alone would (FuzzLoadGraphJSON).
func Decode(data []byte) (*Graph, error) {
	r := canonjson.NewReader(data)
	g, err := ReadCanonical(r)
	if r.Done() {
		return g, err
	}
	return decodeJSON(bytes.NewReader(data))
}

// ReadCanonical reads one graph document at r's position and builds and
// validates it as Decode does, with the same errors. The results mean
// nothing when r has declined (r.OK() is false afterwards): the caller
// must then decode the whole input with encoding/json instead.
func ReadCanonical(r *canonjson.Reader) (*Graph, error) {
	var jg jsonGraph
	readGraph(r, &jg)
	if !r.OK() {
		return nil, nil
	}
	var g Graph
	if err := g.build(&jg); err != nil {
		return nil, fmt.Errorf("taskgraph: decoding: %w", err)
	}
	return validated(&g)
}

// decodeJSON is the encoding/json path of Read and Decode.
func decodeJSON(r io.Reader) (*Graph, error) {
	var g Graph
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("taskgraph: decoding: %w", err)
	}
	return validated(&g)
}

func validated(g *Graph) (*Graph, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("taskgraph: loaded graph invalid: %w", err)
	}
	return g, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// readGraph reads a canonical graph document into jg, declining on
// anything encoding/json might read differently: unknown or repeated keys
// (encoding/json ignores the first and lets the last repeat win), and
// edges that are not exactly two integers (it pads or truncates them).
func readGraph(r *canonjson.Reader, jg *jsonGraph) {
	var seen uint64
	for more := r.Open('{'); more; more = r.Next('{') {
		switch string(r.Key()) {
		case "name":
			r.Once(&seen, 0)
			jg.Name = r.Str()
		case "tasks":
			r.Once(&seen, 1)
			for more := r.Open('['); more; more = r.Next('[') {
				jg.Tasks = append(jg.Tasks, readTask(r))
			}
		case "edges":
			r.Once(&seen, 2)
			for more := r.Open('['); more; more = r.Next('[') {
				jg.Edges = append(jg.Edges, readEdge(r))
			}
		case "comm":
			r.Once(&seen, 3)
			// Present but empty is not absent: build checks a non-nil Comm
			// against the edge count.
			jg.Comm = []int64{}
			for more := r.Open('['); more; more = r.Next('[') {
				jg.Comm = append(jg.Comm, r.Int64())
			}
		default:
			r.Decline()
		}
	}
}

func readTask(r *canonjson.Reader) (jt jsonTask) {
	var seen uint64
	for more := r.Open('{'); more; more = r.Next('{') {
		switch string(r.Key()) {
		case "name":
			r.Once(&seen, 0)
			jt.Name = r.Str()
		case "impls":
			r.Once(&seen, 1)
			for more := r.Open('['); more; more = r.Next('[') {
				jt.Impls = append(jt.Impls, readImpl(r))
			}
		default:
			r.Decline()
		}
	}
	return jt
}

func readImpl(r *canonjson.Reader) (ji jsonImpl) {
	var seen uint64
	for more := r.Open('{'); more; more = r.Next('{') {
		switch string(r.Key()) {
		case "name":
			r.Once(&seen, 0)
			ji.Name = r.Str()
		case "kind":
			r.Once(&seen, 1)
			ji.Kind = r.Str()
		case "time":
			r.Once(&seen, 2)
			ji.Time = r.Int64()
		case "clb":
			r.Once(&seen, 3)
			ji.CLB = r.Int()
		case "bram":
			r.Once(&seen, 4)
			ji.BRAM = r.Int()
		case "dsp":
			r.Once(&seen, 5)
			ji.DSP = r.Int()
		default:
			r.Decline()
		}
	}
	return ji
}

func readEdge(r *canonjson.Reader) (e [2]int) {
	if !r.Open('[') {
		r.Decline()
		return e
	}
	e[0] = r.Int()
	if !r.Next('[') {
		r.Decline()
		return e
	}
	e[1] = r.Int()
	if r.Next('[') {
		r.Decline()
	}
	return e
}
