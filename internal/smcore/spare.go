package smcore

import (
	"sync"

	"gpushare/internal/warp"
)

// MaxSpares caps the spare list: at most this many SMs wait between
// runs, enough for a few whole machines of the default GPU.
const MaxSpares = 64

// spares is the process-wide list of SMs no run is using. A finished
// run recycles its SMs onto it (Recycle) and NewMulti takes the most
// recently recycled one, laying its new tenants out in the spare's
// storage. Each SM on it has dropped every reference to its last run,
// so a spare pins only its own arrays, and it leaves the list to exactly
// one NewMulti: a machine serves one run at a time. It is a plain
// mutex-guarded LIFO, not a pool a garbage collection may empty, so
// what a run reuses does not depend on GC timing.
var spares struct {
	sync.Mutex
	sms []*SM
}

// Recycle hands the SMs of a run that has finished, and that nothing
// will touch again, to the spare list, as far as it has room; the rest
// are left to the garbage collector. Each first drops its references to
// the run: configuration, memory system, fault plan, tenant launches and
// programs, block environments, schedulers and checkpoint views. They go
// on last to first, so a run that builds the same machine next takes
// each SM's own storage back, in order.
func Recycle(sms []*SM) {
	for _, sm := range sms {
		sm.release()
	}
	spares.Lock()
	defer spares.Unlock()
	for i := len(sms) - 1; i >= 0 && len(spares.sms) < MaxSpares; i-- {
		spares.sms = append(spares.sms, sms[i])
	}
}

// takeSpare pops the most recently recycled SM, or returns a new empty
// one when the list is empty.
func takeSpare() *SM {
	spares.Lock()
	defer spares.Unlock()
	n := len(spares.sms)
	if n == 0 {
		return &SM{}
	}
	sm := spares.sms[n-1]
	spares.sms[n-1] = nil
	spares.sms = spares.sms[:n-1]
	return sm
}

// release drops every reference the SM holds to its run, the storage
// its tables lie in kept. Whatever a slice's capacity holds beyond its
// length is cleared too, so nothing of the run hides there.
func (sm *SM) release() {
	sm.cfg, sm.memSys, sm.faults, sm.view, sm.finished = nil, nil, nil, nil, nil
	clear(sm.tens[:cap(sm.tens)])
	sm.tens = sm.tens[:0]
	blocks := sm.blocks[:cap(sm.blocks)]
	for i := range blocks {
		blocks[i].env = warp.Env{}
	}
	clear(sm.scheds[:cap(sm.scheds)])
	clear(sm.ready[:cap(sm.ready)])
}

// resize returns s with n elements: s's own array when it holds n, a
// larger copy of s otherwise. Elements s already had keep their values;
// the caller writes what the new layout needs.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)[:n]
	}
	return s[:n]
}
