// Checkpoint payloads: the versioned, self-describing serialization of
// a whole machine state at a cycle boundary, plus the per-run-mode loop
// state needed to resume the surrounding dispatch loop. A checkpoint is
// taken at the top of a cycle-loop iteration, so it captures the state
// at the end of cycle N-1: every in-flight request sits in exactly one
// queue, and no scratch state is live.
//
// What is deliberately excluded:
//   - the memory system's partition horizons: memos of serialized
//     state, re-derived by the first memory tick after a restore;
//   - derived per-SM views (ready ranks, warp snapshots, free lists):
//     the restorer marks every warp dirty and the first refresh rebuilds
//     them exactly (see smcore.RestoreState);
//   - the invariant checker's pass counter and any engine knobs
//     (Reference, CheckpointStride itself) — none of them can change
//     results, so none of them may invalidate a checkpoint.
//
// The payload cross-checks the simulator revision, the canonical
// configuration, the run mode, the kernel names, and (for multi-tenant
// runs) the tenancy spec before any state is applied, so a checkpoint
// can never silently resume a different experiment.
package gpu

import (
	"bytes"
	"encoding/json"

	"gpushare/internal/checkpoint"
	"gpushare/internal/core"
	"gpushare/internal/invariant"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
	"gpushare/internal/opt/unroll"
	"gpushare/internal/simerr"
	"gpushare/internal/smcore"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
)

// Run modes recorded in checkpoint payloads.
const (
	modeSingle    = "single"
	modePlaced    = "placed"
	modeTimeslice = "timeslice"
)

// launchEntry is one pending block relaunch in serialized form.
type launchEntry struct {
	SM   int   `json:"sm"`
	Slot int   `json:"slot"`
	At   int64 `json:"at"`
}

func saveQueue(q *launchQueue) []launchEntry {
	out := make([]launchEntry, 0, q.n)
	for i := 0; i < q.n; i++ {
		p := q.buf[(q.head+i)&(len(q.buf)-1)]
		out = append(out, launchEntry{SM: p.sm, Slot: p.slot, At: p.at})
	}
	return out
}

// loadQueue rebuilds the FIFO, validating every SM index against the
// run's SM count before anything dereferences it.
func loadQueue(entries []launchEntry, nSMs int) (launchQueue, error) {
	var q launchQueue
	for _, e := range entries {
		if e.SM < 0 || e.SM >= nSMs {
			return q, simerr.New(simerr.KindCheckpoint, -1,
				"checkpoint: pending launch references SM %d of %d", e.SM, nSMs)
		}
		q.push(pendingLaunch{sm: e.SM, slot: e.Slot, at: e.At})
	}
	return q, nil
}

// machineState is the hardware state shared by every run mode: the SM
// array, the memory system, and the functional backing store.
type machineState struct {
	SMs    []smcore.Checkpoint  `json:"sms"`
	Mem    mem.SystemCheckpoint `json:"mem"`
	Global mem.GlobalCheckpoint `json:"global"`
}

// singleState is RunCtx's dispatch-loop state.
type singleState struct {
	NextCTA      int           `json:"next_cta"`
	Pending      []launchEntry `json:"pending"`
	LastProgress int64         `json:"last_progress"`
	DynLast      []int64       `json:"dyn_last"`
	DynProbs     []float64     `json:"dyn_probs"`
}

// placedState is runPlaced's dispatch-loop state (spatial/cosched).
type placedState struct {
	Next         []int         `json:"next"`
	Completed    []int         `json:"completed"`
	Done         []int64       `json:"done"`
	DoneAll      int           `json:"done_all"`
	Pending      []launchEntry `json:"pending"`
	LastProgress int64         `json:"last_progress"`
}

// sliceState is runTimeSlice's state mid-slice: which tenant holds the
// GPU, where its quota ends, the cross-slice dispatch ledgers, and the
// statistics already accumulated from completed slices.
type sliceState struct {
	Tenant       int            `json:"tenant"`
	SliceEnd     int64          `json:"slice_end"`
	Next         []int          `json:"next"`
	Completed    []int          `json:"completed"`
	Done         []int64        `json:"done"`
	Remaining    int            `json:"remaining"`
	Pending      []launchEntry  `json:"pending"`
	LastProgress int64          `json:"last_progress"`
	Agg          stats.GPU      `json:"agg"`
	TenAgg       []stats.Tenant `json:"ten_agg"`
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
	Single  *singleState `json:"single,omitempty"`
	Placed  *placedState `json:"placed,omitempty"`
	Slice   *sliceState  `json:"slice,omitempty"`
}

// newPayload captures the machine and the identity envelope at cycle
// now; the caller fills in the mode-specific loop state.
func (s *Sim) newPayload(mode string, kernels []string, spec *tenancy.Spec, now int64, sms []*smcore.SM) (*payload, error) {
	cj, err := s.Cfg.CanonicalJSON()
	if err != nil {
		return nil, simerr.Wrap(simerr.KindCheckpoint, now, err)
	}
	p := &payload{SimVersion: Version, Config: cj, Mode: mode, Kernels: kernels, Cycle: now}
	if spec != nil {
		sj, err := json.Marshal(spec)
		if err != nil {
			return nil, simerr.Wrap(simerr.KindCheckpoint, now, err)
		}
		p.Spec = sj
	}
	p.Machine.SMs = make([]smcore.Checkpoint, len(sms))
	for i, sm := range sms {
		p.Machine.SMs[i] = sm.Checkpoint()
	}
	p.Machine.Mem = s.ms.Checkpoint()
	p.Machine.Global = s.Mem.Checkpoint()
	return p, nil
}

// encodePayload wraps the JSON payload in the integrity-checked
// container (internal/checkpoint).
func encodePayload(p *payload) ([]byte, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, simerr.Wrap(simerr.KindCheckpoint, p.Cycle, err)
	}
	return checkpoint.Encode(raw), nil
}

// decodePayload verifies the container, parses the payload, and
// cross-checks every identity field against this run. All failures are
// typed KindCheckpoint: a checkpoint either matches exactly or is
// rejected before any state is touched.
func (s *Sim) decodePayload(blob []byte, mode string, kernels []string, spec *tenancy.Spec) (*payload, error) {
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
	cj, err := s.Cfg.CanonicalJSON()
	if err != nil {
		return nil, simerr.Wrap(simerr.KindCheckpoint, -1, err)
	}
	if !bytes.Equal(p.Config, cj) {
		return nil, simerr.New(simerr.KindCheckpoint, -1,
			"checkpoint was taken under a different configuration")
	}
	if p.Mode != mode {
		return nil, simerr.New(simerr.KindCheckpoint, -1,
			"checkpoint is a %q-mode snapshot, this run is %q", p.Mode, mode)
	}
	if len(p.Kernels) != len(kernels) {
		return nil, simerr.New(simerr.KindCheckpoint, -1,
			"checkpoint has %d kernels, run launches %d", len(p.Kernels), len(kernels))
	}
	for i, k := range kernels {
		if p.Kernels[i] != k {
			return nil, simerr.New(simerr.KindCheckpoint, -1,
				"checkpoint kernel %d is %q, run launches %q", i, p.Kernels[i], k)
		}
	}
	if spec != nil {
		sj, err := json.Marshal(spec)
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
	var want bool
	switch mode {
	case modeSingle:
		want = p.Single != nil
	case modePlaced:
		want = p.Placed != nil
	case modeTimeslice:
		want = p.Slice != nil
	}
	if !want {
		return nil, simerr.New(simerr.KindCheckpoint, -1,
			"checkpoint is missing its %s-mode loop state", mode)
	}
	return p, nil
}

// restoreMachine applies the hardware snapshot onto freshly built SMs
// and this simulator's memory system and backing store.
func (s *Sim) restoreMachine(p *payload, sms []*smcore.SM) error {
	if len(p.Machine.SMs) != len(sms) {
		return simerr.New(simerr.KindCheckpoint, p.Cycle,
			"checkpoint has %d SMs, run builds %d", len(p.Machine.SMs), len(sms))
	}
	for i, sm := range sms {
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
	return nil
}

// AuditCheckpoint restores a single-kernel checkpoint into a freshly
// built machine and runs one full invariant audit over it, without
// simulating a cycle. It returns the checkpoint's cycle and the audit
// verdict (nil when every invariant holds). gsim's -bisect-hang mode
// uses it to binary-search a run's checkpoint trail for the first
// snapshot whose state already violates an internal contract.
func (s *Sim) AuditCheckpoint(l *kernel.Launch, blob []byte) (int64, error) {
	if err := l.Validate(); err != nil {
		return 0, simerr.Wrap(simerr.KindLaunch, -1, err)
	}
	launch := *l
	if s.Cfg.UnrollRegs {
		launch.Kernel = unroll.Apply(l.Kernel)
	}
	occ := core.ComputeOccupancy(&s.Cfg, launch.Kernel)
	if occ.Baseline == 0 {
		return 0, simerr.New(simerr.KindUnschedulable, -1,
			"kernel %s does not fit on an SM (%s)", launch.Kernel.Name, occ.Limiter)
	}
	sms, err := s.newSMs(&launch, occ)
	if err != nil {
		return 0, simerr.Wrap(simerr.KindLaunch, -1, err)
	}
	p, err := s.decodePayload(blob, modeSingle, []string{launch.Kernel.Name}, nil)
	if err != nil {
		return 0, err
	}
	if err := s.restoreMachine(p, sms); err != nil {
		return p.Cycle, err
	}
	// The snapshot captures the end of cycle Cycle-1 (the run loop
	// checkpoints at the top of an iteration), so audit at that cycle:
	// the regular checker also runs after a cycle's tick, and e.g. a
	// writeback deadline equal to Cycle is still legitimately pending.
	return p.Cycle, invariant.Audit(p.Cycle-1, invariant.ClassAll, sms, s.ms)
}
