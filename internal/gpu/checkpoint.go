// Checkpoint payloads: the versioned, self-describing serialization of
// a whole machine state at a cycle boundary, plus the one loop state the
// dispatcher (run, in gpu.go) needs to resume. A checkpoint is taken at
// the top of a cycle, so it captures the state at the end of cycle N-1:
// every in-flight request sits in exactly one queue, and no scratch
// state is live.
//
// What is deliberately excluded:
//   - derived per-SM views (ready ranks, warp snapshots, free lists):
//     the restorer marks every warp dirty and the first refresh rebuilds
//     them exactly (see smcore.RestoreState);
//   - the invariant checker's pass counter and any engine knobs
//     (Reference, CheckpointStride itself) — none of them can change
//     results, so none of them may invalidate a checkpoint.
//
// The payload cross-checks the simulator revision, the canonical
// configuration, the run mode, the kernel names, and (for multi-tenant
// runs) the tenancy spec, and validates the loop state's every index,
// before any state is applied, so a checkpoint can never silently resume
// a different experiment or walk off the machine it describes.
package gpu

import (
	"bytes"
	"encoding/json"
	"fmt"

	"gpushare/internal/checkpoint"
	"gpushare/internal/invariant"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
	"gpushare/internal/simerr"
	"gpushare/internal/smcore"
)

// Run modes: the identity string a payload records and decode
// cross-checks. Nothing else branches on them.
const (
	modeSingle    = "single"
	modePlaced    = "placed"
	modeTimeslice = "timeslice"
)

// MarshalJSON writes the FIFO oldest first as [{"sm":..,"slot":..,"at":..}].
// It formats by hand: a nested json.Marshal would draw a second encoder
// buffer from encoding/json's pool in the middle of a snapshot, and the
// two then trade places, so every GC that empties the pool costs two
// multi-megabyte regrowths instead of one (+3 % bytes allocated on the
// benchmark's sim_modes workload).
func (q launchQueue) MarshalJSON() ([]byte, error) {
	b := []byte{'['}
	for i := 0; i < q.n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		p := q.at(i)
		b = fmt.Appendf(b, `{"sm":%d,"slot":%d,"at":%d}`, p.sm, p.slot, p.at)
	}
	return append(b, ']'), nil
}

// UnmarshalJSON rebuilds the FIFO; loopState.validate range-checks the
// entries before anything dereferences them.
func (q *launchQueue) UnmarshalJSON(b []byte) error {
	var entries []struct {
		SM   int   `json:"sm"`
		Slot int   `json:"slot"`
		At   int64 `json:"at"`
	}
	if err := json.Unmarshal(b, &entries); err != nil {
		return err
	}
	*q = launchQueue{}
	for _, e := range entries {
		q.push(pendingLaunch{sm: e.SM, slot: e.Slot, at: e.At})
	}
	return nil
}

// machineState is the hardware state shared by every run mode: the SM
// array, the memory system, and the functional backing store.
type machineState struct {
	SMs    []smcore.Checkpoint  `json:"sms"`
	Mem    mem.SystemCheckpoint `json:"mem"`
	Global mem.GlobalCheckpoint `json:"global"`
}

// loopState is the dispatcher's state between two cycles, the same
// struct live (embedded in run) and serialized: per-tenant ledgers (a
// single-kernel run has one tenant), the relaunch queue, the watchdog's
// mark, and the two pieces only one policy has.
type loopState struct {
	Next         []int       `json:"next"`      // next CTA to dispatch, per tenant
	Completed    []int       `json:"completed"` // blocks drained, per tenant
	Done         []int64     `json:"done"`      // cycle the tenant's last block drained
	Pending      launchQueue `json:"pending"`
	LastProgress int64       `json:"last_progress"`
	Dyn          *dynState   `json:"dyn,omitempty"`   // single-kernel runs
	Slice        *sliceState `json:"slice,omitempty"` // time-slice runs
}

// validate checks a decoded loop state against the run about to adopt
// it (r, still in its freshly built shape) and against the snapshot's
// own machine m — whose SM and slot counts restore in turn requires to
// equal the built machine's — so that nothing the cycle loop indexes
// with it can be out of range.
func (st *loopState) validate(r *run, m *machineState) error {
	bad := func(format string, args ...any) error {
		return simerr.New(simerr.KindCheckpoint, -1, "checkpoint loop state: "+format, args...)
	}
	n := len(r.total)
	if len(st.Next) != n || len(st.Completed) != n || len(st.Done) != n {
		return bad("ledgers cover %d/%d/%d tenants, run has %d", len(st.Next), len(st.Completed), len(st.Done), n)
	}
	for i, total := range r.total {
		if st.Completed[i] < 0 || st.Completed[i] > st.Next[i] || st.Next[i] > total {
			return bad("tenant %d has %d blocks drained, %d dispatched, of %d", i, st.Completed[i], st.Next[i], total)
		}
	}
	for i := 0; i < st.Pending.len(); i++ {
		if e := st.Pending.at(i); e.sm < 0 || e.sm >= len(m.SMs) || e.slot < 0 || e.slot >= len(m.SMs[e.sm].Blocks) {
			return bad("pending relaunch names SM %d slot %d, outside the snapshot's machine", e.sm, e.slot)
		}
	}
	if (st.Dyn != nil) != (r.Dyn != nil) || (st.Slice != nil) != (r.Slice != nil) {
		return bad("dyn/slice state present %t/%t, a %s run wants %t/%t",
			st.Dyn != nil, st.Slice != nil, r.mode, r.Dyn != nil, r.Slice != nil)
	}
	if d := st.Dyn; d != nil && (len(d.Last) != len(m.SMs) || len(d.Probs) != len(m.SMs)) {
		return bad("dyn-controller state covers %d/%d SMs, snapshot has %d", len(d.Last), len(d.Probs), len(m.SMs))
	}
	if sl := st.Slice; sl != nil && (sl.Tenant < 0 || sl.Tenant >= n || len(sl.TenAgg) != n) {
		return bad("slice tenant %d with %d banked tenants, run has %d", sl.Tenant, len(sl.TenAgg), n)
	}
	return nil
}

// payload is the checkpoint root: identity fields first, so a decoder
// can reject a mismatched checkpoint before touching machine state.
type payload struct {
	SimVersion string          `json:"sim_version"`
	Config     json.RawMessage `json:"config"`
	Mode       string          `json:"mode"`
	Kernels    []string        `json:"kernels"`
	Spec       json.RawMessage `json:"spec,omitempty"`
	Cycle      int64           `json:"cycle"`

	Machine machineState `json:"machine"`
	Loop    *loopState   `json:"loop"`
}

// capture serializes the identity envelope, the machine and the loop
// state at cycle now into the integrity-checked container
// (internal/checkpoint).
func (r *run) capture(now int64) ([]byte, error) {
	s := r.s
	cj, err := s.Cfg.CanonicalJSON()
	if err != nil {
		return nil, simerr.Wrap(simerr.KindCheckpoint, now, err)
	}
	p := &payload{SimVersion: Version, Config: cj, Mode: r.mode, Kernels: r.kernels, Cycle: now, Loop: &r.loopState}
	if r.spec != nil {
		if p.Spec, err = json.Marshal(r.spec); err != nil {
			return nil, simerr.Wrap(simerr.KindCheckpoint, now, err)
		}
	}
	p.Machine.SMs = make([]smcore.Checkpoint, len(r.sms))
	for i, sm := range r.sms {
		p.Machine.SMs[i] = sm.Checkpoint()
	}
	p.Machine.Mem = s.ms.Checkpoint()
	p.Machine.Global = s.Mem.Checkpoint()
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, simerr.Wrap(simerr.KindCheckpoint, now, err)
	}
	return checkpoint.Encode(raw), nil
}

// decode verifies the container, parses the payload, cross-checks every
// identity field against this run, and validates the loop state. All
// failures are typed KindCheckpoint: a checkpoint either matches exactly
// or is rejected before any state is touched.
func (r *run) decode(blob []byte) (*payload, error) {
	raw, err := checkpoint.Decode(blob)
	if err != nil {
		return nil, err
	}
	p := &payload{}
	if err := json.Unmarshal(raw, p); err != nil {
		return nil, simerr.New(simerr.KindCheckpoint, -1, "checkpoint payload: %v", err)
	}
	if p.SimVersion != Version {
		return nil, simerr.New(simerr.KindCheckpoint, -1,
			"checkpoint from simulator revision %q, this is %q", p.SimVersion, Version)
	}
	cj, err := r.s.Cfg.CanonicalJSON()
	if err != nil {
		return nil, simerr.Wrap(simerr.KindCheckpoint, -1, err)
	}
	if !bytes.Equal(p.Config, cj) {
		return nil, simerr.New(simerr.KindCheckpoint, -1,
			"checkpoint was taken under a different configuration")
	}
	if p.Mode != r.mode {
		return nil, simerr.New(simerr.KindCheckpoint, -1,
			"checkpoint is a %q-mode snapshot, this run is %q", p.Mode, r.mode)
	}
	if len(p.Kernels) != len(r.kernels) {
		return nil, simerr.New(simerr.KindCheckpoint, -1,
			"checkpoint has %d kernels, run launches %d", len(p.Kernels), len(r.kernels))
	}
	for i, k := range r.kernels {
		if p.Kernels[i] != k {
			return nil, simerr.New(simerr.KindCheckpoint, -1,
				"checkpoint kernel %d is %q, run launches %q", i, p.Kernels[i], k)
		}
	}
	if r.spec != nil {
		sj, err := json.Marshal(r.spec)
		if err != nil {
			return nil, simerr.Wrap(simerr.KindCheckpoint, -1, err)
		}
		if !bytes.Equal(p.Spec, sj) {
			return nil, simerr.New(simerr.KindCheckpoint, -1,
				"checkpoint was taken under a different tenancy spec")
		}
	}
	if p.Cycle <= 0 {
		return nil, simerr.New(simerr.KindCheckpoint, -1,
			"checkpoint carries non-positive cycle %d", p.Cycle)
	}
	if p.Loop == nil {
		// Binaries before the one-loop dispatcher kept a per-mode struct
		// under "single"/"placed"/"slice"; their trails restart cold.
		return nil, simerr.New(simerr.KindCheckpoint, -1,
			"checkpoint carries no loop state (written by an older binary?)")
	}
	if err := p.Loop.validate(r, &p.Machine); err != nil {
		return nil, err
	}
	return p, nil
}

// restore applies a decoded checkpoint: the hardware snapshot onto the
// freshly built SMs and this simulator's memory system and backing
// store, then the loop state.
func (r *run) restore(p *payload) error {
	s := r.s
	if len(p.Machine.SMs) != len(r.sms) {
		return simerr.New(simerr.KindCheckpoint, p.Cycle,
			"checkpoint has %d SMs, run builds %d", len(p.Machine.SMs), len(r.sms))
	}
	for i, sm := range r.sms {
		if err := sm.RestoreState(p.Cycle, p.Machine.SMs[i]); err != nil {
			return simerr.Wrap(simerr.KindCheckpoint, p.Cycle, err)
		}
	}
	if err := s.ms.RestoreState(p.Machine.Mem); err != nil {
		return simerr.Wrap(simerr.KindCheckpoint, p.Cycle, err)
	}
	if err := s.Mem.RestoreState(p.Machine.Global); err != nil {
		return simerr.Wrap(simerr.KindCheckpoint, p.Cycle, err)
	}
	r.loopState = *p.Loop
	r.retired = 0
	for _, c := range r.Completed {
		r.retired += c
	}
	r.resumedAt = p.Cycle
	return nil
}

// AuditCheckpoint restores a single-kernel checkpoint into a freshly
// built machine and runs one full invariant audit over it, without
// simulating a cycle. It returns the checkpoint's cycle and the audit
// verdict (nil when every invariant holds). gsim's -bisect-hang mode
// uses it to binary-search a run's checkpoint trail for the first
// snapshot whose state already violates an internal contract.
func (s *Sim) AuditCheckpoint(l *kernel.Launch, blob []byte) (int64, error) {
	r, err := s.newSingle(l)
	if err != nil {
		return 0, err
	}
	p, err := r.decode(blob)
	if err != nil {
		return 0, err
	}
	if err := r.restore(p); err != nil {
		return p.Cycle, err
	}
	// The snapshot captures the end of cycle Cycle-1 (the run loop
	// checkpoints at the top of an iteration), so audit at that cycle:
	// the regular checker also runs after a cycle's tick, and e.g. a
	// writeback deadline equal to Cycle is still legitimately pending.
	return p.Cycle, invariant.Audit(p.Cycle-1, r.sms, s.ms)
}
