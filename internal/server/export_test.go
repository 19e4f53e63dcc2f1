package server

import "time"

// MustNew is New for tests whose options cannot fail to open a journal.
func MustNew(opts Options) *Server { return NewWithHold(opts, HoldBound) }

// NewWithHold is MustNew with a test-sized ?wait= hold bound.
func NewWithHold(opts Options, hold time.Duration) *Server {
	s, err := newServer(opts, hold)
	if err != nil {
		panic(err)
	}
	return s
}

// View is the job's full view as a 200 reply renders it.
func View(c *Core, j *Job) any { return c.view(j, false, false) }
