package server_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"gpushare/internal/client"
	"gpushare/internal/server"
)

// BenchmarkServerHit is one resubmission of a finished key through the
// whole loopback round trip: client encode, HTTP, admission dedup,
// status with full statistics, client decode.
func BenchmarkServerHit(b *testing.B) {
	s := server.MustNew(server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 8}})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		s.Kill()
		ts.Close()
	}()
	c := client.New(ts.URL)
	ctx := context.Background()
	req := seededReq(77)
	if st, err := c.SubmitWait(ctx, req); err != nil || st.State != server.StateDone {
		b.Fatalf("first submission = %+v, %v; want done", st, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.SubmitWait(ctx, req)
		if err != nil || st.Stats == nil {
			b.Fatalf("hit = %+v, %v", st, err)
		}
	}
}
