package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract is the part of BENCHMARK.json the program reads: the metric
// names and units it must print live in that one place.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := &contract{}
	if err := json.Unmarshal(blob, c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload hands back: measured values by name, and
// the correctness ledger.
type outcome struct {
	values     map[string]float64
	ops        int      // operations attempted
	failedOps  int      // run errors, failed checks, non-done states, HTTP errors
	mismatches int      // stats_mismatch
	notes      []string // what failed or mismatched, and findings worth printing
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) fail(format string, args ...any) {
	o.failedOps++
	o.notes = append(o.notes, "FAILED: "+fmt.Sprintf(format, args...))
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches++
	o.notes = append(o.notes, "MISMATCH: "+fmt.Sprintf(format, args...))
}

// render checks the measured values against the contract and builds the
// result line: every end-to-end metric for an untraced run, every
// per-layer metric for a traced one. A per-layer metric a workload has
// no value for is 0: the layer did no work there. An end-to-end metric
// must be measured on every workload, and a value the contract does not
// name is a bug in the benchmark.
func (o *outcome) render(c *contract, traced bool) (*result, error) {
	defs := c.EndToEnd
	if traced {
		defs = c.PerLayer
	}
	known := make(map[string]bool)
	for _, d := range c.EndToEnd {
		known[d.Name] = true
	}
	for _, d := range c.PerLayer {
		known[d.Name] = true
	}
	for name := range o.values {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	r := &result{Correct: o.mismatches == 0 && o.failedOps == 0, Attempted: o.ops,
		Failed: o.failedOps, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !traced && (!ok || v == 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// wholePasses measures for the given time in whole passes: the first
// always runs, and another one starts while it is expected to end
// inside the measuring time.
func wholePasses(seconds float64, pass func() error) error {
	var walls []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds()+median(walls) <= seconds {
		t0 := time.Now()
		if err := pass(); err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// pct is 100*a/b, 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}
