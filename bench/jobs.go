package main

import (
	"fmt"
	"math/rand"

	"gpushare"
)

// runMode says how a job uses the engine. Everything except modePlain
// belongs to sim_modes.
type runMode int

const (
	modePlain      runMode = iota // straight through
	modeCheckpoint                // CheckpointStride into a timed DirSink
	modeRestore                   // RestoreFrom the middle snapshot of the checkpoint job
	modeAudit                     // InvariantStride on
	modeMulticore                 // GOMAXPROCS = nproc for the duration of the job
)

const (
	checkpointStride = 20000
	invariantStride  = 1000
	timesliceQuota   = 3000
)

// job is one generated input: a descriptor plus how to run it. The
// simulator receives only the descriptor.
type job struct {
	name   string // unique within the workload; the golden key
	kernel string // registry workload name, or "a+b" for a tenancy job
	sim    gpushare.SimJob
	mode   runMode
	base   bool   // the Unshared-LRR leg of a baseline/sharing pair
	sameAs string // name of the job whose Stats this one must reproduce
}

// seedIndependent reports whether the job's statistics are the same
// for every -seed: only the dynamic-warp gate consumes Config.Seed.
func (j *job) seedIndependent() bool { return !j.sim.Config.DynWarp }

const (
	cfgBase    = "Unshared-LRR"
	cfgRegs    = "Shared-OWF-Unroll-Dyn"
	cfgScratch = "Shared-OWF"
)

// baseConfig is the paper's Table I machine with the run's seed.
func baseConfig(seed uint64) gpushare.Config {
	cfg := gpushare.DefaultConfig()
	cfg.Seed = splitmix(seed)
	return cfg
}

// sharingConfig is the paper's best sharing configuration for the
// workload's set: register sharing with OWF, unrolling and dynamic warp
// execution for Set-1/3, scratchpad sharing with OWF for Set-2, t=0.1.
func sharingConfig(seed uint64, w *gpushare.Workload) (string, gpushare.Config) {
	cfg := baseConfig(seed)
	cfg.T = 0.1
	cfg.Sched = gpushare.SchedOWF
	if w.Set == 2 {
		cfg.Sharing = gpushare.ShareScratchpad
		return cfgScratch, cfg
	}
	cfg.Sharing = gpushare.ShareRegisters
	cfg.UnrollRegs, cfg.DynWarp = true, true
	return cfgRegs, cfg
}

// pairJobs builds the baseline and sharing job for each kernel.
func pairJobs(seed uint64, scale int, kernels []string) ([][]job, error) {
	var units [][]job
	for _, k := range kernels {
		w, err := gpushare.WorkloadByName(k)
		if err != nil {
			return nil, err
		}
		name, shared := sharingConfig(seed, w)
		units = append(units,
			[]job{{name: k + "/" + cfgBase, kernel: k, base: true,
				sim: gpushare.SimJob{Workload: k, Config: baseConfig(seed), Scale: scale}}},
			[]job{{name: k + "/" + name, kernel: k,
				sim: gpushare.SimJob{Workload: k, Config: shared, Scale: scale}}})
	}
	return units, nil
}

var (
	computeKernels = []string{"mri-q", "sgemm", "NN", "backprop2", "lavaMD", "SRAD1", "SRAD2"}
	memoryKernels  = []string{"MUM", "BFS", "NW1", "NW2", "b+tree", "backprop", "LIB"}
	modeKernels    = []string{"MUM"}
	serveKernels   = []string{"gaussian", "backprop2", "CONV2"}

	// smokeKernels are the -smoke job lists: two cheap kernels, one per
	// sharing mode, and for sim_modes one kernel just long enough to
	// leave a checkpoint to restore from.
	smokeKernels = map[string][]string{
		"sim_compute": {"backprop2", "SRAD1"},
		"sim_memory":  {"backprop", "NW1"},
		"sim_modes":   {"b+tree"},
	}
)

// modeJobs builds the sim_modes list: tenancy runs, then for each mode
// kernel a plain reference and the checkpoint, restore, audited and
// multi-core variants that must reproduce it. A restore follows its
// checkpoint job in the same unit because it reads that job's trail.
func modeJobs(seed uint64, kernels []string, smoke bool) [][]job {
	cfg := baseConfig(seed)
	tenancy := func(policy gpushare.TenancyPolicy, a, b string) []job {
		spec := &gpushare.TenancySpec{Policy: policy,
			Tenants: []gpushare.TenantSpec{{Workload: a}, {Workload: b}}}
		if policy == gpushare.TenancyTimeSlice {
			spec.QuotaCycles = timesliceQuota
		}
		return []job{{name: fmt.Sprintf("%s+%s/%s", a, b, policy), kernel: a + "+" + b,
			sim: gpushare.SimJob{Config: cfg, Scale: 1, Tenancy: spec}}}
	}
	units := [][]job{tenancy(gpushare.TenancySpatial, "hotspot", "lavaMD")}
	if !smoke {
		units = append(units,
			tenancy(gpushare.TenancyCoSched, "hotspot", "lavaMD"),
			tenancy(gpushare.TenancyTimeSlice, "hotspot", "lavaMD"))
	}
	for _, k := range kernels {
		variant := func(suffix string, mode runMode) job {
			return job{name: k + "/" + suffix, kernel: k, mode: mode, sameAs: k + "/plain",
				sim: gpushare.SimJob{Workload: k, Config: cfg, Scale: 1}}
		}
		plain := variant("plain", modePlain)
		plain.sameAs = ""
		ckpt := variant("checkpoint", modeCheckpoint)
		ckpt.sim.Config.CheckpointStride = checkpointStride
		audit := variant("audit", modeAudit)
		audit.sim.Config.InvariantStride = invariantStride
		units = append(units, []job{plain}, []job{ckpt, variant("restore", modeRestore)},
			[]job{audit}, []job{variant("multicore", modeMulticore)})
	}
	return units
}

// shuffled flattens the units in a seed-determined order.
func shuffled(seed uint64, units [][]job) []job {
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(units), func(i, k int) { units[i], units[k] = units[k], units[i] })
	var out []job
	for _, u := range units {
		out = append(out, u...)
	}
	return out
}

// simJobs generates the job list of one sim_* workload.
func simJobs(workload string, seed uint64, smoke bool) ([]job, error) {
	pick := func(all []string) []string {
		if smoke {
			return smokeKernels[workload]
		}
		return all
	}
	var units [][]job
	var err error
	switch workload {
	case "sim_compute":
		units, err = pairJobs(seed, 1, pick(computeKernels))
	case "sim_memory":
		units, err = pairJobs(seed, 1, pick(memoryKernels))
	case "sim_modes":
		units = modeJobs(seed, pick(modeKernels), smoke)
	default:
		err = fmt.Errorf("no job list for workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	return shuffled(seed, units), nil
}

// splitmix spreads a small seed over 64 bits, so -seed 1 and -seed 2
// give unrelated gate sequences and job keys.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
