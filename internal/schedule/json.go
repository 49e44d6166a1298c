package schedule

import (
	"encoding/json"
	"fmt"
	"io"

	"resched/internal/arch"
	"resched/internal/resources"
	"resched/internal/taskgraph"
)

// jsonSchedule is the on-disk representation of a schedule. The task graph
// and architecture are referenced by name, not embedded: a schedule is only
// meaningful next to its instance, which the loader receives explicitly.
type jsonSchedule struct {
	Algorithm   string       `json:"algorithm"`
	Graph       string       `json:"graph"`
	Arch        string       `json:"arch"`
	Makespan    int64        `json:"makespan"`
	ModuleReuse bool         `json:"moduleReuse,omitempty"`
	Regions     []jsonRegion `json:"regions"`
	Tasks       []jsonAssign `json:"tasks"`
	Reconfs     []jsonReconf `json:"reconfs"`
}

type jsonRegion struct {
	CLB  int `json:"clb"`
	BRAM int `json:"bram,omitempty"`
	DSP  int `json:"dsp,omitempty"`
}

type jsonAssign struct {
	Impl  int    `json:"impl"`
	Kind  string `json:"on"` // "processor" or "region"
	Index int    `json:"index"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

type jsonReconf struct {
	Region  int   `json:"region"`
	InTask  int   `json:"in"`
	OutTask int   `json:"out"`
	Start   int64 `json:"start"`
	End     int64 `json:"end"`
}

// WriteJSON encodes the schedule as indented JSON.
func (s *Schedule) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.document())
}

// CompactJSON returns the schedule as compact JSON: WriteJSON's document
// without indentation and without the trailing newline, which is what
// encoding/json makes of WriteJSON's output when it embeds it as a
// json.RawMessage.
func (s *Schedule) CompactJSON() ([]byte, error) {
	return json.Marshal(s.document())
}

// document is the schedule's on-disk form.
func (s *Schedule) document() jsonSchedule {
	js := jsonSchedule{
		Algorithm:   s.Algorithm,
		Graph:       s.Graph.Name,
		Arch:        s.Arch.Name,
		Makespan:    s.Makespan,
		ModuleReuse: s.ModuleReuse,
		Regions:     []jsonRegion{},
		Tasks:       []jsonAssign{},
		Reconfs:     []jsonReconf{},
	}
	for _, r := range s.Regions {
		js.Regions = append(js.Regions, jsonRegion{
			CLB: r.Res[resources.CLB], BRAM: r.Res[resources.BRAM], DSP: r.Res[resources.DSP],
		})
	}
	for _, a := range s.Tasks {
		js.Tasks = append(js.Tasks, jsonAssign{
			Impl: a.Impl, Kind: a.Target.Kind.String(), Index: a.Target.Index,
			Start: a.Start, End: a.End,
		})
	}
	for _, rc := range s.Reconfs {
		js.Reconfs = append(js.Reconfs, jsonReconf{
			Region: rc.Region, InTask: rc.InTask, OutTask: rc.OutTask,
			Start: rc.Start, End: rc.End,
		})
	}
	return js
}

// ReadJSON decodes a schedule against its instance (graph + architecture)
// and re-validates it with the independent checker.
func ReadJSON(r io.Reader, g *taskgraph.Graph, a *arch.Architecture) (*Schedule, error) {
	var js jsonSchedule
	if err := json.NewDecoder(r).Decode(&js); err != nil {
		return nil, fmt.Errorf("schedule: decoding: %w", err)
	}
	if js.Graph != g.Name {
		return nil, fmt.Errorf("schedule: built for graph %q, loading against %q", js.Graph, g.Name)
	}
	if len(js.Tasks) != g.N() {
		return nil, fmt.Errorf("schedule: %d assignments for %d tasks", len(js.Tasks), g.N())
	}
	s := New(g, a)
	s.Algorithm = js.Algorithm
	s.ModuleReuse = js.ModuleReuse
	s.Makespan = js.Makespan
	for _, jr := range js.Regions {
		s.AddRegion(resources.Vec(jr.CLB, jr.BRAM, jr.DSP))
	}
	for t, ja := range js.Tasks {
		var kind TargetKind
		switch ja.Kind {
		case "processor":
			kind = OnProcessor
		case "region":
			kind = OnRegion
		default:
			return nil, fmt.Errorf("schedule: task %d has unknown target kind %q", t, ja.Kind)
		}
		s.Tasks[t] = Assignment{
			Impl:   ja.Impl,
			Target: Target{Kind: kind, Index: ja.Index},
			Start:  ja.Start,
			End:    ja.End,
		}
	}
	for _, jr := range js.Reconfs {
		s.Reconfs = append(s.Reconfs, Reconfiguration{
			Region: jr.Region, InTask: jr.InTask, OutTask: jr.OutTask,
			Start: jr.Start, End: jr.End,
		})
	}
	if errs := Check(s); len(errs) > 0 {
		return nil, fmt.Errorf("schedule: loaded schedule invalid: %w", errs[0])
	}
	return s, nil
}
