package server

import (
	"net/http"
	"time"
)

// HoldBound is the longest gserved and gsched keep one ?wait= request
// open. It is a bound on the *request*, not on the job: a job that
// outlives it is answered in whatever state it is in and the caller asks
// again at once. It has to sit strictly below every caller's HTTP
// timeout (the fleet's per-worker client allows 30s, internal/client
// 2m), so that an expiring hold is always an ordinary reply and never a
// transport timeout the caller would count as a failure.
const HoldBound = 20 * time.Second

// WantsHold reports whether the request asked to be held (?wait= with
// any value).
func WantsHold(r *http.Request) bool { return r.URL.Query().Get("wait") != "" }

// Hold is the one wait primitive behind every ?wait= endpoint of both
// daemons. It blocks until done closes (the job is terminal), bound
// passes, the request context ends (the caller left), or stop closes
// (the daemon is going away). finished reports that done closed; lapsed
// that the bound ran out, which is the one ending after which asking
// again at once is right — a daemon that is stopping would answer at
// once every time. A job that is already terminal returns without
// arming a timer.
func Hold(r *http.Request, done, stop <-chan struct{}, bound time.Duration) (finished, lapsed bool) {
	select {
	case <-done:
		return true, false
	default:
	}
	t := time.NewTimer(bound)
	defer t.Stop()
	select {
	case <-done:
		return true, false
	case <-t.C:
		return false, true
	case <-r.Context().Done():
	case <-stop:
	}
	return false, false
}
