package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpushare/internal/fleet"
	"gpushare/internal/runner"
	"gpushare/internal/server"
)

// exchange sends one request with a raw body and returns the answer.
func exchange(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestTerminalRepliesAreTheViewBytes: every 200 answer about a finished
// job — a POST without wait that joins it or finds it in the result
// cache, a POST ?wait=1 that ends done, GET and GET ?wait= — is, on
// gserved and on gsched, byte for byte a fresh json.Marshal of the job's
// view plus a newline, sent with its Content-Length.
func TestTerminalRepliesAreTheViewBytes(t *testing.T) {
	dir := t.TempDir()
	opts := server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 8}, Runner: runner.Options{CacheDir: dir}}
	s, s2 := server.MustNew(opts), server.MustNew(opts)
	ts, ts2 := httptest.NewServer(s.Handler()), httptest.NewServer(s2.Handler())
	coord, err := fleet.New(fleet.Options{Workers: []string{ts.URL}, LeaseTTL: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		coord.Kill()
		cts.Close()
		for _, d := range []*server.Server{s, s2} {
			d.Kill()
		}
		ts.Close()
		ts2.Close()
	})

	done := seededReq(3301)
	failing := seededReq(3302)
	failing.Config.MaxCycles = 500 // far too few: the run fails
	asJSON := func(v any) string { return string(mustJSON(t, v)) }

	// check sends one request and holds its answer against the job's
	// view as it is now.
	check := func(core *server.Core, what, method, url, body string, wantCode int) string {
		t.Helper()
		resp, got := exchange(t, method, url, body)
		if resp.StatusCode != wantCode {
			t.Fatalf("%s: %s %s = %d %s, want %d", what, method, url, resp.StatusCode, got, wantCode)
		}
		var st server.JobStatus
		if err := json.Unmarshal(got, &st); err != nil {
			t.Fatalf("%s: %s %s: %v", what, method, url, err)
		}
		j, ok := core.Lookup(st.Key)
		if !ok {
			t.Fatalf("%s: key %s not registered", what, st.Key)
		}
		want := append(mustJSON(t, server.View(core, j)), '\n')
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %s %s answered\n%s\nwant the view\n%s", what, method, url, got, want)
		}
		if resp.ContentLength != int64(len(want)) {
			t.Fatalf("%s: %s %s Content-Length %d, want %d", what, method, url, resp.ContentLength, len(want))
		}
		return st.Key
	}

	for _, d := range []struct {
		name string
		url  string
		core *server.Core
		wrap func(server.SubmitRequest) any
	}{
		{"gserved", ts.URL, s.Core, func(r server.SubmitRequest) any { return r }},
		{"gsched", cts.URL, coord.Core, func(r server.SubmitRequest) any {
			return fleet.SubmitRequest{SubmitRequest: r, Tenant: "alice", Priority: 2}
		}},
	} {
		// Answered while live first: that answer must not be what later
		// ones repeat.
		if resp, b := exchange(t, "POST", d.url+"/v1/jobs", asJSON(d.wrap(done))); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: fresh job = %d %s, want 202", d.name, resp.StatusCode, b)
		}
		key := check(d.core, d.name+" done", "POST", d.url+"/v1/jobs?wait=1", asJSON(d.wrap(done)), http.StatusOK)
		check(d.core, d.name+" dedup", "POST", d.url+"/v1/jobs", asJSON(d.wrap(done)), http.StatusOK)
		check(d.core, d.name+" done", "GET", d.url+"/v1/jobs/"+key, "", http.StatusOK)
		check(d.core, d.name+" done", "GET", d.url+"/v1/jobs/"+key+"?wait=1", "", http.StatusOK)

		if resp, b := exchange(t, "POST", d.url+"/v1/jobs?wait=1", asJSON(d.wrap(failing))); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s: failing job = %d %s, want 500", d.name, resp.StatusCode, b)
		}
		key = check(d.core, d.name+" failed dedup", "POST", d.url+"/v1/jobs", asJSON(d.wrap(failing)), http.StatusOK)
		check(d.core, d.name+" failed", "GET", d.url+"/v1/jobs/"+key, "", http.StatusOK)
		check(d.core, d.name+" failed", "GET", d.url+"/v1/jobs/"+key+"?wait=1", "", http.StatusOK)
	}

	// A second gserved over the same result directory registers the key
	// from its disk cache at admission, and by GET for a key never
	// submitted to it.
	key := check(s2.Core, "cache hit", "POST", ts2.URL+"/v1/jobs", asJSON(done), http.StatusOK)
	check(s2.Core, "cache hit", "GET", ts2.URL+"/v1/jobs/"+key+"?wait=1", "", http.StatusOK)
}

// TestRequestBodiesRejectTrailingData: a body is one JSON value, with
// nothing but whitespace after it, on every route that reads one —
// gserved's and gsched's job and sweep submissions and gsched's worker
// registration.
func TestRequestBodiesRejectTrailingData(t *testing.T) {
	s := server.MustNew(server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 8}})
	ts := httptest.NewServer(s.Handler())
	coord, err := fleet.New(fleet.Options{LeaseTTL: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		coord.Kill()
		cts.Close()
		s.Kill()
		ts.Close()
	})

	job := string(mustJSON(t, seededReq(3303)))
	for _, c := range []struct {
		name, url, body string
		want            int
	}{
		{"job then job", ts.URL + "/v1/jobs", `{"workload":"gaussian","scale":1}{"workload":"MUM"}`, http.StatusBadRequest},
		{"job then garbage", ts.URL + "/v1/jobs", `{"workload":"gaussian","scale":1} trailing-garbage{`, http.StatusBadRequest},
		{"job then bracket", ts.URL + "/v1/jobs", `{"workload":"gaussian","scale":1}]`, http.StatusBadRequest},
		{"job then whitespace", ts.URL + "/v1/jobs", job + " \n\t\r\n", http.StatusAccepted},
		{"sweep then garbage", ts.URL + "/v1/sweeps", `{"jobs":[]}x`, http.StatusBadRequest},
		{"sweep then sweep", ts.URL + "/v1/sweeps", `{"jobs":[]}{"jobs":[]}`, http.StatusBadRequest},
		{"sweep then whitespace", ts.URL + "/v1/sweeps", `{"jobs":[]}` + "\n", http.StatusOK},
		{"fleet job then job", cts.URL + "/v1/jobs", `{"workload":"gaussian"}{"workload":"MUM"}`, http.StatusBadRequest},
		{"fleet sweep then garbage", cts.URL + "/v1/sweeps", `{"jobs":[]}0`, http.StatusBadRequest},
		{"worker then worker", cts.URL + "/v1/workers", `{"url":"http://127.0.0.1:9"}{"url":"http://127.0.0.1:10"}`, http.StatusBadRequest},
		{"worker then garbage", cts.URL + "/v1/workers", `{"url":"http://127.0.0.1:9"}--`, http.StatusBadRequest},
		{"worker then whitespace", cts.URL + "/v1/workers", `{"url":"http://127.0.0.1:9","id":"w9"}` + "\r\n", http.StatusOK},
	} {
		resp, b := exchange(t, "POST", c.url, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: %d %s, want %d", c.name, resp.StatusCode, b, c.want)
			continue
		}
		if c.want == http.StatusBadRequest {
			var eb server.ErrorBody
			if err := json.Unmarshal(b, &eb); err != nil || eb.Kind != "bad-request" {
				t.Errorf("%s: body %s, want a bad-request ErrorBody", c.name, b)
			}
		}
	}
}
