package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
)

// benchmarkFile is the part of BENCHMARK.json the self-test compares with
// the metric catalogue.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSelftest checks the harness itself: the generators are pure functions
// of the seed, the catalogue and BENCHMARK.json declare the same metrics,
// and a shortened run of every workload, untraced and traced, exits clean
// with zero failed operations and exactly its declared metrics.
func runSelftest(cfg config) error {
	checks := []struct {
		name string
		run  func(config) error
	}{
		{"generators are deterministic", checkGenerators},
		{"BENCHMARK.json matches the catalogue", checkDeclared},
		{"short runs are clean", checkShortRuns},
	}
	for _, c := range checks {
		if err := c.run(cfg); err != nil {
			fmt.Printf("FAIL %s: %v\n", c.name, err)
			return fmt.Errorf("self-test failed")
		}
		fmt.Printf("ok   %s\n", c.name)
	}
	return nil
}

func checkGenerators(config) error {
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		t1a, err := genTable1(seed, 30)
		if err != nil {
			return err
		}
		t1b, err := genTable1(seed, 30)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(t1a.visit, t1b.visit) || !reflect.DeepEqual(t1a.groups, t1b.groups) {
			return fmt.Errorf("table1 inputs differ for seed %d", seed)
		}
		ona, err := genOnline(seed)
		if err != nil {
			return err
		}
		onb, err := genOnline(seed)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(ona, onb) {
			return fmt.Errorf("online-long inputs differ for seed %d", seed)
		}
		sa, err := genServe(seed, 200, serveRate)
		if err != nil {
			return err
		}
		sb, err := genServe(seed, 200, serveRate)
		if err != nil {
			return err
		}
		for i := range sa {
			if sa[i].due != sb[i].due || sa[i].solver != sb[i].solver || !bytes.Equal(sa[i].body, sb[i].body) {
				return fmt.Errorf("serve-mix request %d differs for seed %d", i, seed)
			}
		}
	}
	a, err := genServe(defaultSeed, 50, serveRate)
	if err != nil {
		return err
	}
	b, err := genServe(heldOutSeed, 50, serveRate)
	if err != nil {
		return err
	}
	if bytes.Equal(a[0].body, b[0].body) && a[0].due == b[0].due {
		return fmt.Errorf("serve-mix inputs do not depend on the seed")
	}
	return nil
}

func checkDeclared(cfg config) error {
	data, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, allWorkloads) {
		return fmt.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, allWorkloads)
	}
	declared := map[string]benchMetric{}
	for _, m := range bf.EndToEnd {
		declared["e2e:"+m.Name] = m
	}
	for _, m := range bf.PerLayer {
		declared["layer:"+m.Name] = m
	}
	if len(declared) != len(catalogue) {
		return fmt.Errorf("BENCHMARK.json declares %d metrics, the catalogue %d", len(declared), len(catalogue))
	}
	for _, m := range catalogue {
		key := "e2e:" + m.name
		if m.layer {
			key = "layer:" + m.name
		}
		d, ok := declared[key]
		if !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", key)
		}
		if d.Unit != m.unit || d.Better != m.better {
			return fmt.Errorf("metric %s: BENCHMARK.json says %s/%s, the harness %s/%s",
				m.name, d.Unit, d.Better, m.unit, m.better)
		}
	}
	return nil
}

func checkShortRuns(cfg config) error {
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.workload, c.seed, c.seconds, c.traced = w, defaultSeed, 2, traced
			rep, err := workloads[w](c)
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", w, traced, err)
			}
			if _, err := assemble(c, rep); err != nil {
				return fmt.Errorf("%s (trace %v): %w", w, traced, err)
			}
			if rep.failed != 0 || !rep.correct {
				return fmt.Errorf("%s (trace %v): %d of %d operations failed", w, traced, rep.failed, rep.attempted)
			}
			fmt.Printf("     %s trace=%v: %d operations, 0 failed\n", w, traced, rep.attempted)
		}
	}
	return nil
}
