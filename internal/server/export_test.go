package server

import "time"

// NewWithHold is New with a test-sized ?wait= hold bound.
func NewWithHold(opts Options, hold time.Duration) *Server { return newServer(opts, hold) }
