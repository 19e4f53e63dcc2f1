package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// aaReport is what -aa leaves in out/aa.json; baseline.json is a copy
// of the one taken when the benchmark was defined.
type aaReport struct {
	Comment    string                 `json:"comment"`
	Host       aaHost                 `json:"host"`
	Seeds      int                    `json:"seeds"`
	RunSeconds float64                `json:"run_seconds"`
	Workloads  map[string]*aaWorkload `json:"workloads"`
}

type aaHost struct {
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	Commit string `json:"commit"` // of the tree measured; empty outside a git checkout
}

type aaWorkload struct {
	EndToEnd map[string]aaMetric `json:"end_to_end"`
	PerLayer map[string]aaLayer  `json:"per_layer"`
}

type aaMetric struct {
	MedianA    float64 `json:"median_a"`
	MedianB    float64 `json:"median_b"`
	SpreadAPct float64 `json:"spread_a_pct"`
	SpreadBPct float64 `json:"spread_b_pct"`
	BWorsePct  float64 `json:"b_worse_pct"`
}

type aaLayer struct {
	A    float64 `json:"a"`
	B    float64 `json:"b"`
	Unit string  `json:"unit"`
}

const aaComment = "A/A of one tree: two sets of seeds 1..seeds per workload with tracing off, " +
	"and per set one traced run on seed 1 for the per-layer values. It claims no gain. " +
	"spread = (Q3-Q1)/median with the quartiles of statistics.quantiles(n=4); " +
	"b_worse = how much worse set B's median is than set A's."

// runAA is the A/A check: every workload on seeds 1..n, twice, the way
// the benchmark is accepted. For each end-to-end metric it prints the
// spread of each set (the distance between the first and third
// quartile as a share of the median) and how much worse the second
// set's median is than the first's, against the metric's bound; then
// one traced run per set, side by side. It exits non-zero on a breach.
func runAA(c *contract, only, outDir string, n int, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	report := &aaReport{Comment: aaComment, Seeds: n, RunSeconds: seconds,
		Host:      aaHost{NProc: runtime.NumCPU(), Go: runtime.Version()},
		Workloads: make(map[string]*aaWorkload)}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		report.Host.Commit = strings.TrimSpace(string(rev))
	}
	breaches := 0
	for _, w := range c.Workloads {
		if only != "" && only != w.Name {
			continue
		}
		var sets [2]map[string][]float64
		var traced [2]*result
		for set := range sets {
			sets[set] = make(map[string][]float64)
			for seed := 1; seed <= n; seed++ {
				res, err := runSelf(self, w.Name, seed, seconds, 0)
				if err != nil {
					return err
				}
				if !res.Correct {
					breaches++
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
			if traced[set], err = runSelf(self, w.Name, 1, seconds, 1); err != nil {
				return err
			}
		}
		rw := &aaWorkload{EndToEnd: make(map[string]aaMetric), PerLayer: make(map[string]aaLayer)}
		report.Workloads[w.Name] = rw
		fmt.Printf("%s: %d seeds per set\n", w.Name, n)
		fmt.Printf("  %-24s %14s %14s %9s %9s %9s %7s\n", "end-to-end", "median A", "median B", "spread A", "spread B", "B worse", "bound")
		for _, d := range c.EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound || (d.Name != "setup_s" && (spread(a) > d.Bound || spread(b) > d.Bound)) {
				verdict = "  BREACH"
				breaches++
			}
			rw.EndToEnd[d.Name] = aaMetric{MedianA: ma, MedianB: mb, SpreadAPct: 100 * spread(a),
				SpreadBPct: 100 * spread(b), BWorsePct: 100 * worse}
			fmt.Printf("  %-24s %14.6g %14.6g %8.2f%% %8.2f%% %+8.2f%% %6.0f%%%s\n", d.Name, ma, mb,
				100*spread(a), 100*spread(b), 100*worse, 100*d.Bound, verdict)
		}
		fmt.Printf("  %-32s %14s %14s %s\n", "per-layer (seed 1)", "A", "B", "unit")
		for _, d := range c.PerLayer {
			a, b := traced[0].Metrics[d.Name].Value, traced[1].Metrics[d.Name].Value
			if a != 0 || b != 0 {
				rw.PerLayer[d.Name] = aaLayer{A: a, B: b, Unit: d.Unit}
				fmt.Printf("  %-32s %14.6g %14.6g %s\n", d.Name, a, b, d.Unit)
			}
		}
	}
	blob, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "aa.json"), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if breaches > 0 {
		return fmt.Errorf("A/A: %d breaches", breaches)
	}
	return nil
}

// runSelf runs one workload in a process of its own, as run.sh would,
// and parses the result line.
func runSelf(self, workload string, seed int, seconds float64, trace int) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stdout.String())
	}
	last := ""
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	res := &result{}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}
