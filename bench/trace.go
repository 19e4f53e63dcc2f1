package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index
// of the span that caused it (-1 for a root); Job is the SimJob.Key, so
// every span of one request shares an id from the client call down to
// Simulator.Run.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Job     string `json:"job,omitempty"`
	lane    int
}

// tracer keeps spans in memory until the benchmark ends. When off it
// still times (callers need the durations for the end-to-end metrics)
// but records nothing, so an untraced pass pays two clock reads per
// span and no allocation.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// ref is an open span.
type ref struct {
	t  *tracer
	id int // -1 when the tracer is off
	t0 time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span. lane separates concurrent clients in the Chrome
// view; lane 0 is the main goroutine.
func (t *tracer) start(name string, parent ref, job string, lane int) ref {
	r := ref{t: t, id: -1, t0: time.Now()}
	if !t.on {
		return r
	}
	t.mu.Lock()
	r.id = len(t.spans)
	t.spans = append(t.spans, span{Name: name, StartNs: r.t0.Sub(t.epoch).Nanoseconds(),
		Parent: parent.id, Job: job, lane: lane})
	t.mu.Unlock()
	return r
}

// end closes the span and returns its duration.
func (r ref) end() time.Duration {
	now := time.Now()
	if r.id >= 0 {
		r.t.mu.Lock()
		r.t.spans[r.id].EndNs = now.Sub(r.t.epoch).Nanoseconds()
		r.t.mu.Unlock()
	}
	return now.Sub(r.t0)
}

// noParent is the parent of a root span.
var noParent = ref{id: -1}

// harnessSpan reports whether a span belongs to the benchmark itself
// rather than to a layer of the program.
func harnessSpan(name string) bool {
	return name == "pass" || name == "job" || strings.HasPrefix(name, "bench.")
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of its interval its child spans cover (the
// union, so concurrent children are not counted twice).
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, hi := int64(0), s.StartNs
		for _, k := range iv {
			lo, end := max(k[0], hi), min(k[1], s.EndNs)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// harnessSharePct is the share of all self time that belongs to the
// benchmark's own spans: what the trace does not attribute to a layer.
func harnessSharePct(self map[string]time.Duration) float64 {
	var all, own time.Duration
	for name, d := range self {
		all += d
		if harnessSpan(name) {
			own += d
		}
	}
	if all == 0 {
		return 0
	}
	return 100 * float64(own) / float64(all)
}

// writeChrome writes the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto): one complete event per span, the lane as thread id, and
// the span's own fields under args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.StartNs) / 1e3,
			Dur: float64(s.EndNs-s.StartNs) / 1e3, Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": i, "parent": s.Parent, "job": s.Job,
				"start_ns": s.StartNs, "end_ns": s.EndNs}}
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// setJob fills in a span's job id once it is known: the key of a job is
// computed inside its own span.
func (t *tracer) setJob(r ref, job string) {
	if r.id >= 0 {
		t.mu.Lock()
		t.spans[r.id].Job = job
		t.mu.Unlock()
	}
}
