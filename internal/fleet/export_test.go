package fleet

import "time"

// NewWithHold is New with a test-sized ?wait= hold bound.
func NewWithHold(opts Options, hold time.Duration) (*Coordinator, error) {
	return newCoordinator(opts, hold)
}
