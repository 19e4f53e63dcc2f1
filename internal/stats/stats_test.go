package stats

import (
	"reflect"
	"strings"
	"testing"
)

func TestIPCAndAggregation(t *testing.T) {
	g := &GPU{Cycles: 100}
	g.SMs = []SM{
		{ThreadInstrs: 3000, WarpInstrs: 100, StallCycles: 10, IdleCycles: 5},
		{ThreadInstrs: 1000, WarpInstrs: 40, StallCycles: 2, IdleCycles: 1},
	}
	if got := g.IPC(); got != 40 {
		t.Errorf("IPC = %v, want 40", got)
	}
	if g.TotalWarpInstrs() != 140 || g.TotalThreadInstrs() != 4000 {
		t.Error("totals wrong")
	}
	if g.StallCycles() != 12 || g.IdleCycles() != 6 {
		t.Error("stall/idle sums wrong")
	}
	empty := &GPU{}
	if empty.IPC() != 0 {
		t.Error("zero-cycle IPC must be 0")
	}
}

func TestCacheAndDRAMHelpers(t *testing.T) {
	c := Cache{Accesses: 10, Hits: 7, Misses: 3}
	if got := c.MissRate(); got != 0.3 {
		t.Errorf("miss rate = %v", got)
	}
	var zero Cache
	if zero.MissRate() != 0 {
		t.Error("empty cache miss rate must be 0")
	}
	c2 := Cache{Accesses: 1, Hits: 1}
	c2.Add(&c)
	if c2.Accesses != 11 || c2.Hits != 8 || c2.Misses != 3 {
		t.Errorf("Add wrong: %+v", c2)
	}

	d := DRAM{Reads: 5, Writes: 2, RowHits: 6, RowMisses: 2}
	var sum DRAM
	sum.Add(&d)
	sum.Add(&d)
	if sum.Reads != 10 || sum.RowHits != 12 {
		t.Errorf("DRAM add wrong: %+v", sum)
	}
	g := &GPU{DRAM: d}
	if got := g.DRAMRowHitRate(); got != 0.75 {
		t.Errorf("row hit rate = %v", got)
	}
	if (&GPU{}).DRAMRowHitRate() != 0 {
		t.Error("empty DRAM rate must be 0")
	}
}

func TestPercentHelpers(t *testing.T) {
	if got := PercentChange(100, 120); got != 20 {
		t.Errorf("PercentChange = %v", got)
	}
	if got := PercentChange(0, 10); got != 0 {
		t.Errorf("PercentChange from 0 = %v", got)
	}
	if got := PercentDecrease(200, 150); got != 25 {
		t.Errorf("PercentDecrease = %v", got)
	}
	if got := PercentDecrease(0, 5); got != 0 {
		t.Errorf("PercentDecrease from 0 = %v", got)
	}
}

func TestReportContainsKeyMetrics(t *testing.T) {
	g := &GPU{Cycles: 50, ResidentTB: 4}
	g.SMs = []SM{{ThreadInstrs: 100, WarpInstrs: 10, LockAcquires: 3, OwnershipXfers: 1}}
	g.L1 = Cache{Accesses: 4, Hits: 2, Misses: 2}
	out := g.Report()
	for _, want := range []string{"IPC", "stall cycles", "idle cycles", "L1", "L2", "DRAM", "lock acquires"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := &GPU{Cycles: 1234, ResidentTB: 3}
	g.SMs = []SM{{ThreadInstrs: 77, WarpInstrs: 9, LockAcquires: 2}}
	g.L1 = Cache{Accesses: 10, Hits: 7, Misses: 3}
	g.DRAM = DRAM{Reads: 4, RowHits: 2}

	b1, err := g.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := got.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("encode/decode/encode is not byte-stable")
	}
	if got.Cycles != g.Cycles || got.SMs[0].ThreadInstrs != 77 || got.L1.Hits != 7 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if _, err := DecodeJSON([]byte("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestMerge(t *testing.T) {
	a := &GPU{Cycles: 100, ResidentTB: 2}
	a.SMs = []SM{{ThreadInstrs: 10, MaxResidentTB: 4}}
	a.L1 = Cache{Accesses: 5, Hits: 3, Misses: 2}

	b := &GPU{Cycles: 50, ResidentTB: 6}
	b.SMs = []SM{{ThreadInstrs: 20, MaxResidentTB: 2}, {ThreadInstrs: 7}}
	b.L1 = Cache{Accesses: 1, Hits: 1}

	a.Merge(b)
	if a.Cycles != 150 {
		t.Errorf("Cycles = %d, want 150", a.Cycles)
	}
	if len(a.SMs) != 2 || a.SMs[0].ThreadInstrs != 30 || a.SMs[1].ThreadInstrs != 7 {
		t.Errorf("SM merge wrong: %+v", a.SMs)
	}
	if a.SMs[0].MaxResidentTB != 4 {
		t.Errorf("MaxResidentTB = %d, want max(4,2)=4", a.SMs[0].MaxResidentTB)
	}
	if a.L1.Accesses != 6 || a.L1.Hits != 4 {
		t.Errorf("L1 merge wrong: %+v", a.L1)
	}
	if a.ResidentTB != 6 {
		t.Errorf("ResidentTB = %d, want max(2,6)=6", a.ResidentTB)
	}
}

// TestAddersCoverEveryField guards the hand-kept field lists of the four
// accumulators: for each numeric field of stats.SM, Tenant, Cache and
// DRAM, a value set only in the other operand must reach the receiver
// (summed or kept as a maximum). The exceptions are named here, and an
// exception must really be left alone, so a field added to a struct but
// not to its adder fails, and so does a stale exception.
func TestAddersCoverEveryField(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  reflect.Type
		// add accumulates other into a fresh zero value and returns it.
		add  func(other reflect.Value) reflect.Value
		skip []string
	}{
		{"GPU.Merge (SM)", reflect.TypeOf(SM{}), func(o reflect.Value) reflect.Value {
			g := &GPU{}
			g.Merge(&GPU{SMs: []SM{o.Interface().(SM)}})
			return reflect.ValueOf(g.SMs[0])
		}, []string{"DynProbFinal"}},
		{"Tenant.AddCounters", reflect.TypeOf(Tenant{}), func(o reflect.Value) reflect.Value {
			var t Tenant
			ot := o.Interface().(Tenant)
			t.AddCounters(&ot)
			return reflect.ValueOf(t)
		}, []string{"MaxResidentTB", "ResidentSlots", "SMs"}},
		{"Cache.Add", reflect.TypeOf(Cache{}), func(o reflect.Value) reflect.Value {
			var c Cache
			oc := o.Interface().(Cache)
			c.Add(&oc)
			return reflect.ValueOf(c)
		}, nil},
		{"DRAM.Add", reflect.TypeOf(DRAM{}), func(o reflect.Value) reflect.Value {
			var d DRAM
			od := o.Interface().(DRAM)
			d.Add(&od)
			return reflect.ValueOf(d)
		}, nil},
	} {
		skip := make(map[string]bool)
		for _, f := range c.skip {
			if _, ok := c.typ.FieldByName(f); !ok {
				t.Errorf("%s: exception %s names no field of %s", c.name, f, c.typ)
			}
			skip[f] = true
		}
		for i := 0; i < c.typ.NumField(); i++ {
			f := c.typ.Field(i)
			other := reflect.New(c.typ).Elem()
			switch fv := other.Field(i); f.Type.Kind() {
			case reflect.Int, reflect.Int64:
				fv.SetInt(3)
			case reflect.Float64:
				fv.SetFloat(0.5)
			default:
				continue // identity fields (Tenant's Name, Workload)
			}
			got := !c.add(other).Field(i).IsZero()
			if got == skip[f.Name] {
				if skip[f.Name] {
					t.Errorf("%s accumulates %s, which is listed as left alone", c.name, f.Name)
				} else {
					t.Errorf("%s drops %s.%s: add it there or to the named exceptions", c.name, c.typ.Name(), f.Name)
				}
			}
		}
	}
}
