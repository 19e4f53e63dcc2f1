package gpu

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/fault"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
	"gpushare/internal/smcore"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
	"gpushare/internal/workloads"
)

// drainSpares empties the spare list: it takes smcore.MaxSpares SMs off
// it (building the rest from nothing) and drops them.
func drainSpares(t *testing.T) {
	t.Helper()
	cfg := config.Default()
	ws, err := workloads.ByName("gaussian")
	if err != nil {
		t.Fatal(err)
	}
	l := ws.Build(1).Launch
	tl := []smcore.TenantLaunch{{Launch: l, Occ: core.ComputeOccupancy(&cfg, l.Kernel)}}
	ms := mem.NewSystem(&cfg)
	for i := 0; i < smcore.MaxSpares; i++ {
		if _, err := smcore.NewMulti(i, &cfg, tl, ms); err != nil {
			t.Fatal(err)
		}
	}
}

// dirtyRun is a run unlike runOn's in every way an SM's layout can
// differ: gaussian and CONV2 co-scheduled (two tenants, other kernels)
// under scratchpad sharing and LRR, on the reference engine, with one
// scheduler per SM, an L1 of another shape and an armed fault plan that
// never fires. It runs to completion by run.finish, which recycles its
// SMs, and returns them with what they ran against.
func dirtyRun(t *testing.T) (sms []*smcore.SM, sim *Sim, launches []*kernel.Launch) {
	t.Helper()
	cfg := shared(config.ShareScratchpad, config.SchedLRR)
	cfg.Reference, cfg.NumSchedulers = true, 1
	cfg.L1Sets, cfg.L1Ways = 16, 8
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Faults = &fault.Plan{Kind: fault.StaleCensus, Nth: 1 << 30}
	spec := twoTenantSpec(tenancy.CoSched)
	for _, l := range buildTenants(t, sim, spec, 1) {
		lowered, err := sim.lower(l)
		if err != nil {
			t.Fatal(err)
		}
		launches = append(launches, lowered)
	}
	pl, err := tenancy.Pack(&sim.Cfg, launches, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sms, err = sim.buildSMs(pl, launches); err != nil {
		t.Fatal(err)
	}
	r := sim.newRun(modePlaced, "dirtying run", spec, launches)
	r.setSMs(sms)
	now, err := r.start()
	if err != nil {
		t.Fatal(err)
	}
	for ; r.retired < r.totalAll; now++ {
		if _, err := r.cycle(context.Background(), now, true); err != nil {
			t.Fatal(err)
		}
	}
	g := &stats.GPU{Cycles: now}
	r.collect(g)
	if _, err := r.finish(g, sms); err != nil {
		t.Fatal(err)
	}
	return sms, sim, launches
}

// runOn runs MUM alone under Shared-OWF-Unroll-Dyn (register sharing,
// the optimised engine, two schedulers per SM, the default L1) on a new
// simulator whose SMs come from the spare list as it stands. It stops
// short of finish, so the SMs stay this run's, and returns them with
// what they show (smState) as built, at cycle midRun with every SM's
// blocks live, and as the run left them.
func runOn(t *testing.T) (sms []*smcore.SM, built, mid, ran []smState) {
	t.Helper()
	sim, err := New(regSharingDyn())
	if err != nil {
		t.Fatal(err)
	}
	ls, _, err := tenantLaunches(sim, []tenancy.TenantSpec{{Workload: "MUM"}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := sim.lower(ls[0])
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tenancy.WholeGPU(&sim.Cfg, 0, l.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	if sms, err = sim.buildSMs(pl, []*kernel.Launch{l}); err != nil {
		t.Fatal(err)
	}
	built = smStates(t, sms)
	r := sim.newRun(modeSingle, "kernel "+l.Kernel.Name, nil, []*kernel.Launch{l})
	r.setSMs(sms)
	r.Dyn = newDynState(len(sms))
	now, err := r.start()
	if err != nil {
		t.Fatal(err)
	}
	for ; r.Next[0] < r.total[0] || r.Pending.Pending() > 0 || !r.idle(); now++ {
		if now == midRun {
			mid = smStates(t, sms)
		}
		if _, err := r.cycle(context.Background(), now, true); err != nil {
			t.Fatal(err)
		}
		r.Dyn.maybeAdjust(&sim.Cfg, r.sms, now)
	}
	for _, sm := range sms {
		sm.FinalizeStats()
	}
	return sms, built, mid, smStates(t, sms)
}

// midRun is a cycle at which MUM's first wave is still running.
const midRun = 10_000

// smState is what an SM shows: its checkpoint JSON and its SM and
// tenant statistics.
type smState struct {
	ckpt    []byte
	stats   stats.SM
	tenants []stats.Tenant
}

func smStates(t *testing.T, sms []*smcore.SM) []smState {
	t.Helper()
	out := make([]smState, len(sms))
	for i, sm := range sms {
		b, err := json.Marshal(sm.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = smState{ckpt: b, stats: sm.Stats}
		for ti := 0; ti < sm.Tenants(); ti++ {
			out[i].tenants = append(out[i].tenants, sm.TenantStats(ti))
		}
	}
	return out
}

// TestRecycledSMsMatchFreshSMs: an SM built from a spare is the SM a
// build from nothing makes, byte for byte in its checkpoint JSON and in
// its SM and tenant statistics, right after the build, in the middle of
// a run and after it, though the spare last served a run that differed from this one
// in kernels, tenant count, sharing mode, scheduler policy and count,
// engine and L1 shape.
func TestRecycledSMsMatchFreshSMs(t *testing.T) {
	drainSpares(t)
	fresh, freshBuilt, freshMid, freshRan := runOn(t)
	dirty, _, _ := dirtyRun(t)
	if len(dirty) < len(fresh) {
		t.Fatalf("the dirtying run recycled %d SMs, the run under test builds %d", len(dirty), len(fresh))
	}
	spare := make(map[*smcore.SM]bool, len(dirty))
	for _, sm := range dirty {
		spare[sm] = true
	}
	recycled, gotBuilt, gotMid, gotRan := runOn(t)
	for i, sm := range recycled {
		if !spare[sm] {
			t.Fatalf("SM%d was built from nothing, not taken from the spare list", sm.ID)
		}
		if sm == fresh[i] {
			t.Fatalf("SM%d: the fresh machine's SM was recycled", sm.ID)
		}
	}
	for _, phase := range []struct {
		name      string
		got, want []smState
	}{{"built", gotBuilt, freshBuilt}, {"mid-run", gotMid, freshMid}, {"after the run", gotRan, freshRan}} {
		if len(phase.want) != len(fresh) {
			t.Fatalf("%s: %d SM states of %d SMs", phase.name, len(phase.want), len(fresh))
		}
		for i := range phase.want {
			got, want := &phase.got[i], &phase.want[i]
			if !bytes.Equal(got.ckpt, want.ckpt) {
				at := 0
				for at < len(got.ckpt) && at < len(want.ckpt) && got.ckpt[at] == want.ckpt[at] {
					at++
				}
				from := max(at-60, 0)
				t.Errorf("%s, SM%d: the recycled SM's checkpoint differs from the fresh one's at byte %d:\n got ...%.120s\nwant ...%.120s",
					phase.name, i, at, got.ckpt[from:], want.ckpt[from:])
			}
			if got.stats != want.stats {
				t.Errorf("%s, SM%d: recycled stats %+v, fresh %+v", phase.name, i, got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.tenants, want.tenants) {
				t.Errorf("%s, SM%d: recycled tenant stats %+v, fresh %+v", phase.name, i, got.tenants, want.tenants)
			}
		}
	}
}

// TestRecycledSMHoldsNothingOfItsRun: an SM on the spare list reaches
// nothing of the run it served — not its memory system or backing store,
// configuration, launches, kernels, programs, sharing managers or fault
// plan — so a spare pins only its own arrays. It walks everything each
// recycled SM reaches, through pointers, interfaces, maps and each
// slice's whole capacity.
func TestRecycledSMHoldsNothingOfItsRun(t *testing.T) {
	sms, sim, launches := dirtyRun(t)
	held := map[uintptr]string{
		reflect.ValueOf(sim.ms).Pointer():     "the memory system",
		reflect.ValueOf(sim.Mem).Pointer():    "the backing store",
		reflect.ValueOf(&sim.Cfg).Pointer():   "the configuration",
		reflect.ValueOf(sim.Faults).Pointer(): "the fault plan",
	}
	for _, l := range launches {
		held[reflect.ValueOf(l).Pointer()] = "a launch"
		held[reflect.ValueOf(l.Kernel).Pointer()] = "a kernel"
		held[reflect.ValueOf(l.Kernel.Instrs).Pointer()] = "a kernel's instructions"
		if len(l.Params) > 0 {
			held[reflect.ValueOf(l.Params).Pointer()] = "a launch's parameters"
		}
	}
	// Types nothing of a run may leave behind, wherever they point.
	banned := map[reflect.Type]string{
		reflect.TypeFor[*mem.System]():     "a memory system",
		reflect.TypeFor[*mem.Global]():     "a backing store",
		reflect.TypeFor[*config.Config]():  "a configuration",
		reflect.TypeFor[*kernel.Launch]():  "a launch",
		reflect.TypeFor[*kernel.Kernel]():  "a kernel",
		reflect.TypeFor[*smcore.Program](): "a program",
		reflect.TypeFor[*core.Manager]():   "a sharing manager",
		reflect.TypeFor[*fault.Plan]():     "a fault plan",
	}
	for _, sm := range sms {
		w := &refWalker{seen: make(map[uintptr]bool)}
		w.walk(reflect.ValueOf(sm), "sm")
		for _, r := range w.refs {
			if what, ok := held[r.ptr]; ok {
				t.Errorf("recycled SM%d reaches %s through %s", sm.ID, what, r.path)
			} else if what, ok := banned[r.typ]; ok {
				t.Errorf("recycled SM%d holds %s (%s) through %s", sm.ID, what, r.typ, r.path)
			}
		}
		if w.funcs != "" {
			t.Errorf("recycled SM%d holds a closure, which may capture its run, at %s", sm.ID, w.funcs)
		}
		if w.metas != "" {
			t.Errorf("recycled SM%d holds issue metadata of its run's program at %s", sm.ID, w.metas)
		}
	}
}

// refWalker collects every non-nil pointer, slice array and map a value
// reaches, with the path to its first sighting.
type refWalker struct {
	seen  map[uintptr]bool
	refs  []ref
	funcs string // path to a non-nil func, if any
	metas string // path to a non-empty program metadata table, if any
}

type ref struct {
	ptr  uintptr
	typ  reflect.Type
	path string
}

func (w *refWalker) note(v reflect.Value, path string) bool {
	p := v.Pointer()
	w.refs = append(w.refs, ref{p, v.Type(), path})
	if w.seen[p] {
		return false
	}
	w.seen[p] = true
	return true
}

func (w *refWalker) walk(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && w.note(v, path) {
			w.walk(v.Elem(), path)
		}
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(v.Elem(), path)
		}
	case reflect.Func:
		if !v.IsNil() && w.funcs == "" {
			w.funcs = path
		}
	case reflect.Map:
		if !v.IsNil() && w.note(v, path) {
			for it := v.MapRange(); it.Next(); {
				w.walk(it.Key(), path+"[key]")
				w.walk(it.Value(), path+"[value]")
			}
		}
	case reflect.Slice:
		if v.Cap() == 0 {
			return
		}
		if v.Type().Elem().Name() == "metaEntry" && w.metas == "" {
			w.metas = path
		}
		if !w.note(v, path) || !hasRefs(v.Type().Elem()) {
			return
		}
		all := v.Slice(0, v.Cap())
		for i := 0; i < all.Len(); i++ {
			w.walk(all.Index(i), path+"[]")
		}
	case reflect.Array:
		if hasRefs(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				w.walk(v.Index(i), path+"[]")
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	}
}

// hasRefs reports whether a value of type t can hold a reference.
func hasRefs(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Func, reflect.Map, reflect.Slice, reflect.String, reflect.Chan, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return hasRefs(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasRefs(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
