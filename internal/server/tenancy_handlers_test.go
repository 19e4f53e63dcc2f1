package server

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestSubmitTenancyValidation covers the admission rules for
// multi-tenant submissions, including the field-name typo regression:
// readBody rejects unknown JSON fields, so a client that misspells
// "tenancy" must get a 400 — not a silently single-tenant run.
func TestSubmitTenancyValidation(t *testing.T) {
	s := MustNew(Options{Workers: 1, CoreOptions: CoreOptions{QueueDepth: 2}})
	defer s.Drain(5 * time.Second)

	cases := []struct {
		name, body, wantMsg string
	}{
		{"misspelled tenancy field",
			`{"tenantt":{"policy":"cosched","tenants":[{"workload":"gaussian"}]}}`,
			"tenantt"},
		{"workload and tenancy together",
			`{"workload":"gaussian","tenancy":{"policy":"cosched","tenants":[{"workload":"CONV2"}]}}`,
			"mutually exclusive"},
		{"timeslice without quota",
			`{"tenancy":{"policy":"timeslice","tenants":[{"workload":"gaussian"}]}}`,
			"quota_cycles"},
		{"quota outside timeslice",
			`{"tenancy":{"policy":"cosched","quota_cycles":5000,"tenants":[{"workload":"gaussian"}]}}`,
			"quota_cycles"},
		{"unknown tenant workload",
			`{"tenancy":{"policy":"cosched","tenants":[{"workload":"nope"}]}}`,
			"nope"},
		{"unknown policy",
			`{"tenancy":{"policy":"fairshare","tenants":[{"workload":"gaussian"}]}}`,
			"fairshare"},
		{"empty tenant list",
			`{"tenancy":{"policy":"spatial","tenants":[]}}`,
			"tenant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doReq(s, "POST", "/v1/jobs", tc.body)
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", rr.Code, rr.Body.String())
			}
			b := decodeError(t, rr)
			if b.Kind != "bad-request" {
				t.Fatalf("kind = %q, want bad-request", b.Kind)
			}
			if !strings.Contains(b.Error, tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", b.Error, tc.wantMsg)
			}
		})
	}
}
