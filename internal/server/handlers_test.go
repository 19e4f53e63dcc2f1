package server

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// doReq drives one request through the full middleware stack.
func doReq(s *Server, method, path, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	s.Handler().ServeHTTP(rr, httptest.NewRequest(method, path, rd))
	return rr
}

func decodeError(t *testing.T, rr *httptest.ResponseRecorder) ErrorBody {
	t.Helper()
	var b ErrorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &b); err != nil {
		t.Fatalf("decode error body %q: %v", rr.Body.String(), err)
	}
	return b
}

// TestPanicMiddleware: a handler crash becomes a structured 500 for that
// request; the daemon keeps serving.
func TestPanicMiddleware(t *testing.T) {
	s := MustNew(Options{Workers: 1, CoreOptions: CoreOptions{QueueDepth: 2}})
	defer s.Drain(5 * time.Second)
	s.mux.HandleFunc("GET /test/panic", func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})

	old := log.Writer() // silence the expected stack trace
	log.SetOutput(io.Discard)
	defer log.SetOutput(old)

	rr := doReq(s, "GET", "/test/panic", "")
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	body := decodeError(t, rr)
	if body.Kind != "panic" || !strings.Contains(body.Error, "boom") {
		t.Fatalf("body = %+v, want kind panic mentioning boom", body)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	if rr := doReq(s, "GET", "/healthz", ""); rr.Code != http.StatusOK {
		t.Fatalf("healthz after panic = %d, want 200", rr.Code)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := MustNew(Options{Workers: 1, CoreOptions: CoreOptions{QueueDepth: 2}})
	defer s.Drain(5 * time.Second)

	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"malformed json", "{", http.StatusBadRequest},
		{"unknown field", `{"bogus":1}`, http.StatusBadRequest},
		{"missing workload", `{}`, http.StatusBadRequest},
		{"unknown workload", `{"workload":"nope"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doReq(s, "POST", "/v1/jobs", tc.body)
			if rr.Code != tc.wantCode {
				t.Fatalf("status = %d, want %d (%s)", rr.Code, tc.wantCode, rr.Body.String())
			}
			if b := decodeError(t, rr); b.Kind != "bad-request" {
				t.Fatalf("kind = %q, want bad-request", b.Kind)
			}
		})
	}

	if rr := doReq(s, "GET", "/v1/jobs/deadbeef", ""); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown key = %d, want 404", rr.Code)
	}
}

func TestBodyTooLarge(t *testing.T) {
	s := MustNew(Options{Workers: 1, CoreOptions: CoreOptions{MaxBodyBytes: 64}})
	defer s.Drain(5 * time.Second)
	big := `{"workload":"` + strings.Repeat("x", 200) + `"}`
	rr := doReq(s, "POST", "/v1/jobs", big)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rr.Code)
	}
}

// TestInFlightBytesShed: the aggregate body budget sheds with 429 +
// Retry-After before the request is even parsed.
func TestInFlightBytesShed(t *testing.T) {
	s := MustNew(Options{Workers: 1, CoreOptions: CoreOptions{MaxInFlightBytes: 16}})
	defer s.Drain(5 * time.Second)
	rr := doReq(s, "POST", "/v1/jobs", `{"workload":"gaussian","scale":1}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rr.Code)
	}
	if b := decodeError(t, rr); b.Kind != "overload" || b.RetryAfterSec < 1 {
		t.Fatalf("body = %+v, want overload with retry_after_sec >= 1", b)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("missing Retry-After header on shed response")
	}
	if got := s.rejBytes.Load(); got != 1 {
		t.Fatalf("rejBytes = %d, want 1", got)
	}
	// The budget was returned: a small request afterwards is admitted.
	if rr := doReq(s, "GET", "/readyz", ""); rr.Code != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", rr.Code)
	}
	if got := s.inFlightBytes.Load(); got != 0 {
		t.Fatalf("inFlightBytes = %d after release, want 0", got)
	}
}
