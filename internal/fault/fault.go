// Package fault provides deterministic fault injection for tests of
// the invariant checker, the crash-recovery paths and the job services.
// A Plan arms exactly one fault of one kind; the code under test calls
// Trip at each opportunity (every memory reply, every lease release,
// every barrier arrival, every checkpoint write, every dispatch) and
// the plan fires on the Nth one, recording where it struck. Because the
// simulator itself is deterministic, the same plan against the same
// workload always corrupts the same event, so tests can assert the
// precise detector that catches it. One kind corrupts nothing:
// HoldAtCheckpoint stops a run at a known cycle until the test calls
// Release, so a test can act on a job that is certainly still running.
//
// The package is a leaf (standard library only) so smcore, core, and
// mem can consult a plan without import cycles.
package fault

import (
	"fmt"
	"sync"
)

// Kind selects what to corrupt.
type Kind uint8

// Fault kinds.
const (
	None                 Kind = iota
	DropMemReply              // discard a memory reply at SM ejection: the load never completes
	CorruptLeaseRelease       // release a shared-register lease without fixing the active-lock count
	SkipBarrierArrival        // a warp parks at a barrier without being counted as arrived
	StaleSnapshot             // skip a warp-snapshot invalidation: the scheduler keeps ranking on stale state
	CrashAfterCheckpoint      // crash (panic) right after a checkpoint is durably written, before any journal commit
	TornCheckpoint            // truncate a checkpoint file after its atomic rename, then crash
	TornJournal               // truncate a journal record after its atomic write, then crash before the accept returns
	WorkerCrashMidJob         // a gserved worker dies abruptly (kill -9) while a dispatched job is running
	CrashAfterDispatch        // the gsched coordinator dies between dispatching a job to a worker and recording the ack
	HeartbeatBlackhole        // a network partition: the worker stays alive but every coordinator probe to it is dropped
	StaleCensus               // skip a census drop at a writeback: the census still counts the warp "scoreboard-blocked" after its operand landed
	DRAMQueueOrder            // the two newest requests of a DRAM queue trade places: the queue is no longer arrival-ordered
	HoldAtCheckpoint          // a checkpoint write, once durable, blocks (holding its sink) until Release: the run waits at that cycle
)

func (k Kind) String() string {
	switch k {
	case DropMemReply:
		return "drop-mem-reply"
	case CorruptLeaseRelease:
		return "corrupt-lease-release"
	case SkipBarrierArrival:
		return "skip-barrier-arrival"
	case StaleSnapshot:
		return "stale-snapshot"
	case CrashAfterCheckpoint:
		return "crash-after-checkpoint"
	case TornCheckpoint:
		return "torn-checkpoint"
	case TornJournal:
		return "torn-journal"
	case WorkerCrashMidJob:
		return "worker-crash-mid-job"
	case CrashAfterDispatch:
		return "crash-after-dispatch"
	case HeartbeatBlackhole:
		return "heartbeat-blackhole"
	case StaleCensus:
		return "stale-census"
	case DRAMQueueOrder:
		return "dram-queue-order"
	case HoldAtCheckpoint:
		return "hold-at-checkpoint"
	}
	return "none"
}

// Plan arms one fault. The zero value (Kind None) never fires. Nth is
// the 1-based opportunity index to corrupt; 0 behaves as 1.
//
// Trip is safe for concurrent use — fleet crash points fire from
// dispatch and probe goroutines, not just the single-threaded cycle
// loop. The injection-record fields may be read directly once the run
// has settled; a concurrent observer should use Fired instead.
type Plan struct {
	Kind Kind
	Nth  int

	// Injection record, filled when the fault fires.
	Injected bool
	Cycle    int64
	SM       int
	Warp     int
	Detail   string

	mu      sync.Mutex
	seen    int
	held    chan struct{} // closed by Hold; made on first use
	release chan struct{} // closed by Release; made on first use
}

// NewPlan derives a plan deterministically from a seed: the fault fires
// on opportunity 1 + seed mod spread. The same (kind, seed, workload)
// triple always corrupts the same event.
func NewPlan(kind Kind, seed uint64, spread int) *Plan {
	if spread <= 0 {
		spread = 1
	}
	// splitmix64 finalizer decorrelates adjacent seeds.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return &Plan{Kind: kind, Nth: 1 + int(z%uint64(spread))}
}

// Armed reports whether the plan waits for opportunities of this kind.
// It is small enough to inline: hot-path callers whose Trip detail must
// be formatted test it first, so a run with no plan (or a plan of a
// different kind) never pays for the string.
func (p *Plan) Armed(kind Kind) bool { return p != nil && p.Kind == kind }

// Trip reports whether the fault fires at this opportunity. kind names
// the opportunity the caller is offering; non-matching kinds never
// fire. A nil plan never fires.
func (p *Plan) Trip(kind Kind, cycle int64, sm, warp int, detail string) bool {
	if p == nil || p.Kind != kind {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.Injected {
		return false
	}
	p.seen++
	nth := p.Nth
	if nth <= 0 {
		nth = 1
	}
	if p.seen < nth {
		return false
	}
	p.Injected = true
	p.Cycle, p.SM, p.Warp, p.Detail = cycle, sm, warp, detail
	return true
}

// Fired reports whether the fault has been injected. Unlike reading
// Injected directly, it is safe while Trip may still be firing on
// other goroutines.
func (p *Plan) Fired() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Injected
}

// Hold is what a caller does when a HoldAtCheckpoint plan trips: it
// reports the hold (Held's channel closes) and blocks until Release.
// A plan trips once, so a plan holds at most one run.
func (p *Plan) Hold() {
	held, release := p.chans()
	close(held)
	<-release
}

// Held returns a channel that closes once a run is held.
func (p *Plan) Held() <-chan struct{} {
	held, _ := p.chans()
	return held
}

// Release lets a held run go on. It may be called before the hold (the
// hold then does not block), and more than once.
func (p *Plan) Release() {
	_, release := p.chans()
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-release:
	default:
		close(release)
	}
}

func (p *Plan) chans() (held, release chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.held == nil {
		p.held, p.release = make(chan struct{}), make(chan struct{})
	}
	return p.held, p.release
}

// String describes the plan and, once fired, the injection record.
func (p *Plan) String() string {
	if p == nil || p.Kind == None {
		return "no fault"
	}
	s := fmt.Sprintf("%s on opportunity %d", p.Kind, p.Nth)
	if p.Injected {
		s += fmt.Sprintf(" (injected at cycle %d, SM %d, warp %d: %s)", p.Cycle, p.SM, p.Warp, p.Detail)
	}
	return s
}
