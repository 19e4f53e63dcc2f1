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
// before any state that outlives the run is applied, so a checkpoint can
// never silently resume a different experiment or walk off the machine
// it describes.
package gpu

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strconv"

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
// It formats by hand: capture's json.Encoder builds each section of the
// payload in a scratch buffer it draws from encoding/json's pool, and a
// nested json.Marshal here would draw a second one in the middle of the
// loop section. Both go back to the pool, and the next large section may
// draw the small one and regrow it.
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

// identity returns the run's identity envelope: the canonical
// configuration and, for a multi-tenant run, the tenancy spec, as JSON.
// Both are fixed for the run, so they are marshalled on first use and
// kept: every capture writes them and decode compares against them.
func (r *run) identity() (cfg, spec json.RawMessage, err error) {
	if r.cfgJSON == nil {
		if r.spec != nil {
			if spec, err = json.Marshal(r.spec); err != nil {
				return nil, nil, err
			}
		}
		if cfg, err = r.s.Cfg.CanonicalJSON(); err != nil {
			return nil, nil, err
		}
		r.cfgJSON, r.specJSON = cfg, spec
	}
	return r.cfgJSON, r.specJSON, nil
}

// capture serializes the identity envelope, the machine and the loop
// state at cycle now into the integrity-checked container
// (internal/checkpoint) in one pass over live state: the per-package
// views alias the machine instead of copying it, the payload is written
// into the simulator's capture buffer behind a reserved header, and
// checkpoint.Seal writes the header in place. The container returned
// lives in that buffer, which the next capture overwrites — hence the
// checkpoint.Sink contract that Put keeps nothing.
//
// The buffer never grows while a capture writes into it: a container
// that does not fit is only counted (captureBuf), and the capture is
// then written again into a buffer sized once from that count, with
// headroom for what the machine can still grow by. A run's first
// capture into an empty buffer is therefore a counting pass, and a
// later one pays a second pass only if its container outgrew the
// headroom — the buffer never doubles.
func (r *run) capture(now int64) ([]byte, error) {
	if _, _, err := r.identity(); err != nil {
		return nil, simerr.Wrap(simerr.KindCheckpoint, now, err)
	}
	w := &r.s.ck
	if err := r.encode(w, now); err != nil {
		return nil, simerr.Wrap(simerr.KindCheckpoint, now, err)
	}
	if !w.fits() {
		w.b = make([]byte, 0, w.n+r.headroom(w.global))
		if err := r.encode(w, now); err != nil {
			return nil, simerr.Wrap(simerr.KindCheckpoint, now, err)
		}
		if !w.fits() { // the same state encodes to the same bytes
			return nil, simerr.New(simerr.KindCheckpoint, now,
				"checkpoint container of %d bytes outgrew its %d-byte buffer", w.n, cap(w.b))
		}
	}
	return checkpoint.Seal(w.b), nil
}

// pageJSON bounds one more page of the global section: the base64 of
// its bytes and the element around it.
var pageJSON = base64.StdEncoding.EncodedLen(mem.PageSize) + len(`,{"index":4294967295,"data":""}`)

// headroom is what a capture buffer holds beyond a container whose
// machine section (everything before the backing store) is machine
// bytes long: every page below the allocator cursor that no store has
// materialized yet, and a quarter of the machine section, whose
// register values, queues and scratchpads move with the run (at scale 1
// on the default machine, MUM's by up to 6 % of its first capture's,
// hotspot's by up to 17 %).
func (r *run) headroom(machine int) int {
	return r.s.Mem.Unstored()*pageJSON + machine/4
}

// encode writes the container at cycle now into w, from its start: the
// reserved header, then the payload section by section — each identity
// field, each SM, each memory partition, each global page, the loop
// state — with the punctuation of payload, machineState,
// mem.SystemCheckpoint and mem.GlobalCheckpoint written between them,
// so the bytes are json.Marshal(payload)'s
// (TestCaptureMatchesSeedEncoder). encoding/json builds every value it
// encodes in a scratch buffer from its own pool before copying it out;
// one section at a time, that buffer is bounded by the largest section
// instead of growing to the whole multi-megabyte payload. Sections go to
// the encoder by pointer, so that passing them as interface values
// allocates nothing per section.
func (r *run) encode(w *captureBuf, now int64) error {
	s := r.s
	w.reset()
	var header [checkpoint.HeaderSize]byte
	w.Write(header[:])
	w.put(`{"sim_version":`, Version)
	w.put(`,"config":`, &r.cfgJSON)
	w.put(`,"mode":`, &r.mode)
	w.put(`,"kernels":`, &r.kernels)
	if len(r.specJSON) > 0 {
		w.put(`,"spec":`, &r.specJSON)
	}
	w.writeString(`,"cycle":`)
	w.writeInt(now)
	w.writeString(`,"machine":{"sms":[`)
	var smc smcore.Checkpoint
	for i, sm := range r.sms {
		smc = sm.Checkpoint()
		w.put(sep(i), &smc)
	}
	// The memory system goes partition by partition too: whole, it is
	// the largest section by far (every L2 tag array).
	memc := s.ms.Checkpoint()
	w.put(`],"mem":{"to_mem":`, &memc.ToMem)
	w.put(`,"to_sm":`, &memc.ToSM)
	w.writeString(`,"partitions":[`) // never null: one per partition
	for i := range memc.Partitions {
		w.put(sep(i), &memc.Partitions[i])
	}
	w.writeString("]}")
	w.global = w.n
	g := s.Mem.Checkpoint()
	if g.Pages == nil {
		w.writeString(`,"global":{"pages":null`)
	} else {
		w.writeString(`,"global":{"pages":[`)
		for i := range g.Pages {
			w.put(sep(i), &g.Pages[i])
		}
		w.writeString("]")
	}
	w.writeString(`,"brk":`)
	w.writeInt(int64(g.Brk))
	w.put(`}},"loop":`, &r.loopState)
	w.writeString("}")
	return w.err
}

// sep is the separator before element i of a JSON list.
func sep(i int) string {
	if i == 0 {
		return ""
	}
	return ","
}

// captureBuf is the simulator's capture buffer and the writer a
// capture encodes into. It appends what it is given only while the
// whole container so far fits in b's capacity, and counts every byte
// either way, so b never grows behind the capture's back: once a
// container did not fit, n is its exact size.
type captureBuf struct {
	b      []byte
	n      int           // bytes written since reset, stored or not
	global int           // n where the backing-store section began
	enc    *json.Encoder // encodes into this buffer
	err    error         // the first encoding error since reset
	num    [20]byte      // writeInt's digits
}

// reset starts a new container at the start of b.
func (w *captureBuf) reset() {
	if w.enc == nil {
		w.enc = json.NewEncoder(w)
	}
	w.b, w.n, w.global, w.err = w.b[:0], 0, 0, nil
}

// fits reports whether every byte written since reset is in b.
func (w *captureBuf) fits() bool { return len(w.b) == w.n }

// Write is the json.Encoder's sink; it never fails.
func (w *captureBuf) Write(p []byte) (int, error) {
	if w.fits() && w.n+len(p) <= cap(w.b) {
		w.b = append(w.b, p...)
	}
	w.n += len(p)
	return len(p), nil
}

func (w *captureBuf) writeString(s string) {
	if w.fits() && w.n+len(s) <= cap(w.b) {
		w.b = append(w.b, s...)
	}
	w.n += len(s)
}

func (w *captureBuf) writeInt(v int64) { w.Write(strconv.AppendInt(w.num[:0], v, 10)) }

// put writes prefix and then v's JSON encoding, without the newline
// Encode ends it with; the first error stops it.
func (w *captureBuf) put(prefix string, v any) {
	if w.err != nil {
		return
	}
	w.writeString(prefix)
	if w.err = w.enc.Encode(v); w.err == nil {
		if w.fits() {
			w.b = w.b[:len(w.b)-1]
		}
		w.n--
	}
}

// decode verifies the container, parses the payload, cross-checks every
// identity field against this run, and validates the loop state. All
// failures are typed KindCheckpoint: a checkpoint either matches exactly
// or is rejected before any state that outlives the run is touched.
//
// When the run's SMs are built (every mode but a time-slice run, which
// learns from the payload which tenant's SMs to build), the payload is
// decoded into them: each SM's register files, predicates, SIMT stacks
// and L1 tag array come pre-filled as views of the SM's own storage
// (smcore.SM.RestoreView), encoding/json decodes into those arrays, and
// restore's copies are self-copies with their length checks intact. A
// rejected checkpoint may leave those SMs half written, but they belong
// to this run alone. The memory system and the backing store outlive
// the run, so they are decoded apart and applied only by restore.
func (r *run) decode(blob []byte) (*payload, error) {
	raw, err := checkpoint.Decode(blob)
	if err != nil {
		return nil, err
	}
	p := &payload{}
	if r.sms != nil {
		p.Machine.SMs = make([]smcore.Checkpoint, len(r.sms))
		for i, sm := range r.sms {
			p.Machine.SMs[i] = sm.RestoreView()
		}
	}
	if err := json.Unmarshal(raw, p); err != nil {
		return nil, simerr.New(simerr.KindCheckpoint, -1, "checkpoint payload: %v", err)
	}
	if p.SimVersion != Version {
		return nil, simerr.New(simerr.KindCheckpoint, -1,
			"checkpoint from simulator revision %q, this is %q", p.SimVersion, Version)
	}
	cj, sj, err := r.identity()
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
	if r.spec != nil && !bytes.Equal(p.Spec, sj) {
		return nil, simerr.New(simerr.KindCheckpoint, -1,
			"checkpoint was taken under a different tenancy spec")
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
// freshly built SMs and then this simulator's memory system and backing
// store, which are checked in full before either changes, then the loop
// state.
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
	if err := s.ms.RestoreState(p.Machine.Mem, p.Machine.Global); err != nil {
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
