package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metric is one reported value, in the form the result line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the units
// it reports in and the bounds compare judges by.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// samples is a set of observations of one quantity.
type samples []float64

// pct returns the nearest-rank p-th percentile, 0 for no samples.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// table collects a run's metrics by name and how many samples stand
// behind each.
type table struct {
	values map[string]float64
	counts map[string]int
}

func newTable() *table {
	return &table{values: make(map[string]float64), counts: make(map[string]int)}
}

// set records a value backed by n samples.
func (t *table) set(name string, v float64, n int) {
	t.values[name] = v
	t.counts[name] = n
}

// pctOf records the p-th percentile of s.
func (t *table) pctOf(name string, s samples, p float64) {
	t.set(name, s.pct(p), len(s))
}

// shares splits total across names in proportion to the summed parts,
// so the rows add up to total by construction.
func (t *table) shares(total float64, n int, names []string, parts []samples) {
	whole := 0.0
	for _, p := range parts {
		whole += p.sum()
	}
	for i, name := range names {
		v := 0.0
		if whole > 0 {
			v = total * parts[i].sum() / whole
		}
		t.set(name, v, n)
	}
}

// pick builds the result's metric map: exactly the metrics spec lists,
// each of which the run must have produced as a finite number.
func (t *table) pick(spec []specMetric) (map[string]metric, error) {
	out := make(map[string]metric, len(spec))
	for _, m := range spec {
		v, ok := t.values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return out, nil
}
