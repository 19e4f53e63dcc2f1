package gpu

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
	"gpushare/internal/smcore"
	"gpushare/internal/tenancy"
	"gpushare/internal/workloads"
)

// cloneOrNil copies s the way append([]T(nil), s...) does: an empty
// slice copies to nil, which serializes as null.
func cloneOrNil[T any](s []T) []T { return append([]T(nil), s...) }

// cloneList copies s into a make([]T, len(s)): an empty slice copies to
// an empty list, which serializes as [].
func cloneList[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

// seedSM deep-copies an SM view by the rules the seed engine's
// smcore.Checkpoint copied the live state by.
func seedSM(c smcore.Checkpoint) smcore.Checkpoint {
	c.Warps = cloneList(c.Warps)
	for i := range c.Warps {
		w := &c.Warps[i].W
		w.Stack, w.Regs, w.Preds = cloneList(w.Stack), cloneOrNil(w.Regs), cloneOrNil(w.Preds)
	}
	c.Blocks = cloneList(c.Blocks)
	for i := range c.Blocks {
		if len(c.Blocks[i].Smem) > 0 {
			c.Blocks[i].Smem = cloneOrNil(c.Blocks[i].Smem)
		}
	}
	c.L1.Lines = cloneList(c.L1.Lines)
	c.MSHR = cloneOrNil(c.MSHR)
	for i := range c.MSHR {
		c.MSHR[i].Loads = cloneList(c.MSHR[i].Loads)
	}
	if len(c.Finished) > 0 {
		c.Finished = cloneOrNil(c.Finished)
	}
	return c
}

// seedMem deep-copies the memory system's view the seed engine's way.
func seedMem(c mem.SystemCheckpoint) mem.SystemCheckpoint {
	c.Partitions = cloneList(c.Partitions)
	for i := range c.Partitions {
		p := &c.Partitions[i]
		p.L2.Lines = cloneList(p.L2.Lines)
		p.DRAM.Banks = cloneList(p.DRAM.Banks)
		p.DRAM.Queue, p.DRAM.Inflight = cloneList(p.DRAM.Queue), cloneList(p.DRAM.Inflight)
	}
	return c
}

// seedGlobal deep-copies the backing store's view the seed engine's way.
func seedGlobal(c mem.GlobalCheckpoint) mem.GlobalCheckpoint {
	var pages []mem.PageCheckpoint
	for _, pg := range c.Pages {
		pages = append(pages, mem.PageCheckpoint{Index: pg.Index, Data: cloneOrNil(pg.Data)})
	}
	c.Pages = pages
	return c
}

// seedCapture encodes r's snapshot at cycle now the way the seed engine
// did, sharing nothing with run.capture but the views: the identity
// envelope marshalled afresh, every view deep-copied, json.Marshal into
// a new buffer, and checkpoint.Encode over that.
func seedCapture(r *run, now int64) ([]byte, error) {
	s := r.s
	cj, err := s.Cfg.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	p := &payload{SimVersion: Version, Config: cj, Mode: r.mode, Kernels: r.kernels, Cycle: now, Loop: &r.loopState}
	if r.spec != nil {
		if p.Spec, err = json.Marshal(r.spec); err != nil {
			return nil, err
		}
	}
	p.Machine.SMs = make([]smcore.Checkpoint, len(r.sms))
	for i, sm := range r.sms {
		p.Machine.SMs[i] = seedSM(sm.Checkpoint())
	}
	p.Machine.Mem = seedMem(s.ms.Checkpoint())
	p.Machine.Global = seedGlobal(s.Mem.Checkpoint())
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	return checkpoint.Encode(raw), nil
}

// seedEncoderSink holds every container a run hands it to seedCapture
// of the same run at the same cycle (it watches the run, see
// runWatcher).
type seedEncoderSink struct {
	t      *testing.T
	r      *run
	puts   int
	second []byte // a copy of the second container, to resume from
}

func (k *seedEncoderSink) watch(r *run) { k.r = r }

func (k *seedEncoderSink) Put(cycle int64, blob []byte) error {
	want, err := seedCapture(k.r, cycle)
	if err != nil {
		return err
	}
	if !bytes.Equal(blob, want) {
		k.t.Errorf("cycle %d: the capture (%d bytes) differs from the seed encoder's container (%d bytes)",
			cycle, len(blob), len(want))
	}
	k.puts++
	if k.puts == 2 {
		k.second = bytes.Clone(blob)
	}
	return nil
}

// TestCaptureMatchesSeedEncoder captures at every stride point of one
// run per mode — single (MUM under Shared-OWF-Unroll-Dyn), placed
// (gaussian+CONV2 co-scheduled under scratchpad sharing) and timeslice
// (the same pair, the stride landing inside quanta and drains) — and
// demands each container equal, byte for byte, checkpoint.Encode of
// json.Marshal over deep copies of the same state: the one-pass capture
// into a reused, sealed-in-place buffer over aliasing views changes how
// a snapshot is made, never what it says. Each run is then resumed from
// its second snapshot, whose restore adopts decoded buffers, and held to
// the same check at every later stride point.
func TestCaptureMatchesSeedEncoder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      config.Config
		workload string
		spec     *tenancy.Spec
		stride   int64
	}{
		{"single/MUM", regSharingDyn(), "MUM", nil, 20_000},
		{"placed/cosched", shared(config.ShareScratchpad, config.SchedLRR), "", twoTenantSpec(tenancy.CoSched), 1024},
		{"timeslice", shared(config.ShareScratchpad, config.SchedLRR), "", twoTenantSpec(tenancy.TimeSlice), 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.CheckpointStride = tc.stride
			sink := &seedEncoderSink{t: t}
			g, err := simulate(cfg, tc.workload, tc.spec, 1, sink, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := (g.Cycles - 1) / tc.stride; int64(sink.puts) != want || want < 3 {
				t.Fatalf("%d captures over %d cycles, want one per stride point (%d) and at least 3", sink.puts, g.Cycles, want)
			}
			resumed := &seedEncoderSink{t: t}
			if _, err := simulate(cfg, tc.workload, tc.spec, 1, resumed, sink.second); err != nil {
				t.Fatal(err)
			}
			if resumed.puts != sink.puts-2 {
				t.Errorf("the run resumed at the second snapshot captured %d more, want %d", resumed.puts, sink.puts-2)
			}
		})
	}
}

// TestSliceResetMatchesFreshSMs runs one time slice of a tenant to its
// drained end, resets the tenant's SMs as a later slice of the same run
// does, and demands each equal a freshly built SM: the same checkpoint
// JSON, SM statistics and tenant statistics.
func TestSliceResetMatchesFreshSMs(t *testing.T) {
	const quota = 3000
	spec := twoTenantSpec(tenancy.TimeSlice)
	for ti, ts := range spec.Tenants {
		t.Run(ts.Workload, func(t *testing.T) {
			sim, err := New(shared(config.ShareScratchpad, config.SchedLRR))
			if err != nil {
				t.Fatal(err)
			}
			launches, _, err := tenantLaunches(sim, spec.Tenants, 1)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := tenancy.WholeGPU(&sim.Cfg, ti, launches[ti].Kernel)
			if err != nil {
				t.Fatal(err)
			}
			sms, err := sim.buildSMs(pl, launches)
			if err != nil {
				t.Fatal(err)
			}
			r := sim.newRun(modeTimeslice, "slice", spec, launches)
			r.setSMs(sms)
			if err := r.fill(0); err != nil {
				t.Fatal(err)
			}
			now := int64(0)
			for ; now < quota || !r.idle(); now++ {
				if _, err := r.cycle(context.Background(), now, now < quota); err != nil {
					t.Fatal(err)
				}
			}
			if r.Completed[ti] == 0 {
				t.Fatalf("the slice retired no block in %d cycles: nothing was dirtied", now)
			}
			fresh, err := sim.buildSMs(pl, launches)
			if err != nil {
				t.Fatal(err)
			}
			for i, sm := range sms {
				sm.Reset()
				got, err := json.Marshal(sm.Checkpoint())
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(fresh[i].Checkpoint())
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					at := 0
					for at < len(got) && at < len(want) && got[at] == want[at] {
						at++
					}
					from := max(at-60, 0)
					t.Errorf("SM%d: reset checkpoint differs from a fresh SM's at byte %d:\n got ...%.120s\nwant ...%.120s",
						sm.ID, at, got[from:], want[from:])
				}
				if sm.Stats != fresh[i].Stats {
					t.Errorf("SM%d: reset stats %+v, fresh %+v", sm.ID, sm.Stats, fresh[i].Stats)
				}
				if got, want := sm.TenantStats(0), fresh[i].TenantStats(0); got != want {
					t.Errorf("SM%d: reset tenant stats %+v, fresh %+v", sm.ID, got, want)
				}
			}
		})
	}
}

// allocMeter sums the heap bytes allocated between start and stop, for a
// benchmark's MB/op column: B/op in megabytes, over the same timed parts.
type allocMeter struct{ at, total uint64 }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (m *allocMeter) start() { m.at = totalAlloc() }
func (m *allocMeter) stop()  { m.total += totalAlloc() - m.at }

func (m *allocMeter) report(b *testing.B) {
	b.ReportMetric(float64(m.total)/float64(b.N)/1e6, "MB/op")
}

// BenchmarkCapture times one checkpoint capture of the MUM machine at
// cycle 60 000 (default configuration, scale 1): the machine is
// restored from the snapshot the run wrote at that cycle, and each op
// serializes and seals it again.
func BenchmarkCapture(b *testing.B) {
	const at = 60_000
	blob := mumSnapshot(b, at)
	sim, l := mumSim(b)
	r, err := sim.newSingle(l)
	if err != nil {
		b.Fatal(err)
	}
	p, err := r.decode(blob)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.restore(p); err != nil {
		b.Fatal(err)
	}
	// One capture first: a simulator's first snapshot sizes its capture
	// buffer (BenchmarkCheckpointRun times that), every later one
	// reuses it.
	if _, err := r.capture(at); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var m allocMeter
	b.ResetTimer()
	m.start()
	for i := 0; i < b.N; i++ {
		if _, err := r.capture(at); err != nil {
			b.Fatal(err)
		}
	}
	m.stop()
	b.StopTimer()
	m.report(b)
}

// BenchmarkTimeSlice runs hotspot and lavaMD (scale 1) time-sliced on
// the default machine at a 3 000-cycle quota, the benchmark's sim_modes
// time-slice job: one op is the whole run, every slice switch included,
// on a simulator whose inputs are set up outside the timer.
func BenchmarkTimeSlice(b *testing.B) {
	cfg := config.Default()
	spec := &tenancy.Spec{Policy: tenancy.TimeSlice, QuotaCycles: 3000,
		Tenants: []tenancy.TenantSpec{{Workload: "hotspot"}, {Workload: "lavaMD"}}}
	var m allocMeter
	op := func() {
		b.StopTimer()
		sim, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		launches, _, err := tenantLaunches(sim, spec.Tenants, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		m.start()
		if _, err := sim.RunMulti(spec, launches); err != nil {
			b.Fatal(err)
		}
		m.stop()
	}
	op() // untimed: each timed op builds on spares (see BenchmarkComputeBound)
	m = allocMeter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	m.report(b)
}

// discardSink takes every checkpoint and keeps nothing, so a run under
// it allocates only what capturing costs.
type discardSink struct{ puts int }

func (d *discardSink) Put(int64, []byte) error { d.puts++; return nil }

// mumSim returns a default-configuration simulator with MUM (scale 1)
// set up in its memory, and the launch.
func mumSim(tb testing.TB) (*Sim, *kernel.Launch) {
	tb.Helper()
	sim, err := New(config.Default())
	if err != nil {
		tb.Fatal(err)
	}
	ws, err := workloads.ByName("MUM")
	if err != nil {
		tb.Fatal(err)
	}
	inst := ws.Build(1)
	inst.Setup(sim.Mem)
	return sim, inst.Launch
}

// mumSnapshot returns the container a default-configuration MUM run
// (scale 1) captures at cycle at.
func mumSnapshot(tb testing.TB, at int64) []byte {
	tb.Helper()
	cfg := config.Default()
	cfg.CheckpointStride = at
	sink := checkpoint.NewMemSink()
	runWorkloadCK(tb, "MUM", cfg, 1, sink, nil)
	blob := sink.Get(at)
	if blob == nil {
		tb.Fatalf("MUM ran past no checkpoint at cycle %d (trail %v)", at, sink.List())
	}
	return blob
}

// BenchmarkCheckpointRun is a whole MUM run (scale 1, default
// configuration) checkpointed every 20 000 cycles into a sink that
// keeps nothing: one op is the run with all its captures, the first
// one's sizing of the capture buffer included, on a simulator whose
// inputs are set up outside the timer.
func BenchmarkCheckpointRun(b *testing.B) {
	var m allocMeter
	op := func() {
		b.StopTimer()
		sim, l := mumSim(b)
		sim.Cfg.CheckpointStride = 20_000
		sink := &discardSink{}
		sim.CheckpointSink = sink
		b.StartTimer()
		m.start()
		if _, err := sim.Run(l); err != nil {
			b.Fatal(err)
		}
		m.stop()
		if sink.puts == 0 {
			b.Fatal("the run captured nothing")
		}
	}
	op() // untimed: each timed op builds on spares (see BenchmarkComputeBound)
	m = allocMeter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	m.report(b)
}

// BenchmarkRestore decodes MUM's cycle-100 000 snapshot (scale 1,
// default configuration) and restores it into a freshly built machine:
// one op is the decode and the restore, on a simulator and machine
// built outside the timer.
func BenchmarkRestore(b *testing.B) {
	blob := mumSnapshot(b, 100_000)
	b.ReportAllocs()
	var m allocMeter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim, l := mumSim(b)
		r, err := sim.newSingle(l)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		m.start()
		p, err := r.decode(blob)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.restore(p); err != nil {
			b.Fatal(err)
		}
		m.stop()
	}
	b.StopTimer()
	m.report(b)
}
