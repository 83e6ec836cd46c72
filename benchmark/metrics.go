package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json, as far as the benchmark reads it. It is
// the one declaration of the workloads' names and of every metric's name
// and unit: the harness prints what it lists, in the unit it gives.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`

	unit map[string]string // by metric name, both lists
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	s := &benchSpec{unit: map[string]string{}}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, list := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			s.unit[m.Name] = m.Unit
		}
	}
	return s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	spec *benchSpec
}

func (s *benchSpec) newResult() *result {
	return &result{Metrics: map[string]metric{}, spec: s}
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{v, r.spec.unit[name]}
}
