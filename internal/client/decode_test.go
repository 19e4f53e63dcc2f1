package client

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"gpushare/internal/runner"
	"gpushare/internal/server"
	"gpushare/internal/stats"
)

// TestDecodeDoneStatusAllocs budgets the client's decode of one done
// status as gserved sends it: the status, its four strings, the
// statistics and their two slices. A decode that falls back to
// encoding/json, or grows its slices, goes over. (The pooled read
// buffer is left out: under the race detector sync.Pool drops items on
// purpose.)
func TestDecodeDoneStatusAllocs(t *testing.T) {
	run, key, err := server.BuildJob(&server.SubmitRequest{Workload: "gaussian"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := runner.New(runner.Options{Workers: 1}).RunJob(run)
	if err != nil {
		t.Fatal(err)
	}
	want := server.JobStatus{Key: key, Workload: run.Label(), Scale: run.Scale,
		State: server.StateDone, Tier: "memory-cache", Stats: g}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, '\n')

	var st server.JobStatus
	if err := decodeBody(bytes.NewReader(body), &st); err != nil || !reflect.DeepEqual(st, want) {
		t.Fatalf("decodeBody = %+v, %v; want %+v", st, err, want)
	}
	const budget = 8
	allocs := testing.AllocsPerRun(100, func() {
		var st server.JobStatus
		if err := stats.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("decoding one done status (%d B) allocates %.0f times, budget %d", len(body), allocs, budget)
	}
	t.Logf("one done status, %d B: %.0f allocations", len(body), allocs)
}
