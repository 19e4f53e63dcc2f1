package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenSeed is the seed the goldens were recorded with. Jobs whose
// statistics depend on the seed are checked against the golden only on
// that seed; every other job on every seed.
const goldenSeed = 1

// goldenEntry is the recorded outcome of one job.
type goldenEntry struct {
	SHA256 string  `json:"stats_sha256"`
	Cycles int64   `json:"cycles"`
	IPC    float64 `json:"ipc"`
}

type golden struct {
	Seed uint64                 `json:"seed"`
	Jobs map[string]goldenEntry `json:"jobs"`
}

func goldenPath(workload string) string {
	return filepath.Join("golden", workload+".json")
}

func loadGolden(workload string) (*golden, error) {
	blob, err := os.ReadFile(goldenPath(workload))
	if err != nil {
		return nil, fmt.Errorf("golden (record it with -record-golden): %w", err)
	}
	g := &golden{}
	if err := json.Unmarshal(blob, g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(workload), err)
	}
	return g, nil
}

func (g *golden) write(workload string) error {
	blob, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(workload), append(blob, '\n'), 0o644)
}

// check compares one job's statistics with the recorded ones.
func (g *golden) check(o *outcome, name, sha string) {
	want, ok := g.Jobs[name]
	switch {
	case !ok:
		o.mismatch("%s has no golden entry", name)
	case want.SHA256 != sha:
		o.mismatch("%s: Stats differ from golden (%.12s, want %.12s)", name, sha, want.SHA256)
	}
}
