package gpu

import (
	"runtime"
	"sync"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
)

// These tests pin the threading model: a simulation runs entirely on
// its caller's goroutine, and simulations scale by running several at
// once (runner's farm, gsched's workers), sharing nothing but the
// mem/dram sync.Pools.

// goroutineSink samples the live goroutine count at every checkpoint,
// i.e. from inside the cycle loop.
type goroutineSink struct{ counts []int }

func (s *goroutineSink) Put(int64, []byte) error {
	s.counts = append(s.counts, runtime.NumGoroutine())
	return nil
}

// TestRunSpawnsNoGoroutines: with four Ps on offer, Run and RunMulti
// (all three tenancy policies) hold the goroutine count where it was —
// mid-run and after — and produce the bytes of the GOMAXPROCS=1 run.
func TestRunSpawnsNoGoroutines(t *testing.T) {
	sharing := config.Default()
	sharing.Sharing, sharing.T = config.ShareScratchpad, 0.1
	sharing.CheckpointStride = 2000
	plain := config.Default()
	plain.CheckpointStride = 2000

	type mode struct {
		name string
		run  func(t *testing.T, sink *goroutineSink) *stats.GPU
	}
	modes := []mode{{"single", func(t *testing.T, sink *goroutineSink) *stats.GPU {
		return runWorkloadCK(t, "gaussian", plain, 1, sink, nil)
	}}}
	for _, policy := range []tenancy.Policy{tenancy.Spatial, tenancy.CoSched, tenancy.TimeSlice} {
		modes = append(modes, mode{policy.String(), func(t *testing.T, sink *goroutineSink) *stats.GPU {
			return runMultiCK(t, sharing, twoTenantSpec(policy), 1, sink, nil)
		}})
	}

	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			ref := encodeJSON(t, m.run(t, &goroutineSink{}))

			runtime.GOMAXPROCS(4)
			sink := &goroutineSink{}
			before := runtime.NumGoroutine()
			got := encodeJSON(t, m.run(t, sink))
			after := runtime.NumGoroutine()

			if len(sink.counts) == 0 {
				t.Fatal("no checkpoint taken: the mid-run sample never happened")
			}
			for i, n := range sink.counts {
				if n != before {
					t.Fatalf("checkpoint %d: %d goroutines mid-run, %d before the run", i, n, before)
				}
			}
			if after != before {
				t.Errorf("%d goroutines after the run, %d before", after, before)
			}
			if got != ref {
				t.Error("GOMAXPROCS=4 stats differ from the GOMAXPROCS=1 run")
			}
		})
	}
}

// TestConcurrentRunsIndependent: five different simulations on five
// goroutines, each goroutine running two of them one after the other,
// each produce the bytes of their solo run. Run under -race
// (tools/check.sh does), this is the check that concurrent simulations
// share no live state: the last shared state, the LineRequest and DRAM
// request pools, is gone, every queue belongs to one mem.System, and the
// one thing runs do pass between them, the SMs a finished run recycles,
// reaches the next run through the spare list only after the run that
// used it is done. The goroutines' second runs build their SMs from the
// spares of the first runs, whose kernels, tenants, sharing modes and
// engines differ.
func TestConcurrentRunsIndependent(t *testing.T) {
	regOWFDyn := config.Default() // Shared-OWF-Unroll-Dyn
	regOWFDyn.Sharing, regOWFDyn.T = config.ShareRegisters, 0.1
	regOWFDyn.Sched = config.SchedOWF
	regOWFDyn.UnrollRegs, regOWFDyn.DynWarp = true, true
	smemOWF := config.Default() // Shared-OWF
	smemOWF.Sharing, smemOWF.T = config.ShareScratchpad, 0.1
	smemOWF.Sched = config.SchedOWF
	reference := config.Default() // the reference engine, two-level scheduling
	reference.Reference, reference.Sched = true, config.SchedTwoLevel
	cosched := &tenancy.Spec{
		Policy: tenancy.CoSched,
		Tenants: []tenancy.TenantSpec{
			{Name: "a", Workload: "hotspot"},
			{Name: "b", Workload: "lavaMD"},
		},
	}
	// run is simulate reduced to the canonical stats bytes.
	run := func(cfg config.Config, name string, spec *tenancy.Spec) func() (string, error) {
		return func() (string, error) {
			g, err := simulate(cfg, name, spec, 1, nil, nil)
			if err != nil {
				return "", err
			}
			j, err := g.EncodeJSON()
			return string(j), err
		}
	}
	sims := []struct {
		name string
		run  func() (string, error)
	}{
		{"MUM", run(config.Default(), "MUM", nil)},
		{"hotspot", run(regOWFDyn, "hotspot", nil)},
		{"lavaMD", run(smemOWF, "lavaMD", nil)},
		{"hotspot+lavaMD", run(smemOWF, "", cosched)},
		{"gaussian-reference-two-level", run(reference, "gaussian", nil)},
	}

	solo := make([]string, len(sims))
	for i, s := range sims {
		var err error
		if solo[i], err = s.run(); err != nil {
			t.Fatalf("%s solo: %v", s.name, err)
		}
	}

	together, again := make([]string, len(sims)), make([]string, len(sims))
	errs := make([]error, len(sims))
	var wg sync.WaitGroup
	for i, s := range sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Then the next simulation's, on SMs recycled from whichever
			// runs finished first.
			next := (i + 1) % len(sims)
			if together[i], errs[i] = s.run(); errs[i] == nil {
				again[i], errs[i] = sims[next].run()
			}
		}()
	}
	wg.Wait()
	for i, s := range sims {
		next := (i + 1) % len(sims)
		switch {
		case errs[i] != nil:
			t.Errorf("goroutine %d (%s, then %s): %v", i, s.name, sims[next].name, errs[i])
		case together[i] != solo[i]:
			t.Errorf("%s: stats from the concurrent run differ from its solo run", s.name)
		case again[i] != solo[next]:
			t.Errorf("%s: stats from the concurrent run after %s differ from its solo run", sims[next].name, s.name)
		}
	}
}
