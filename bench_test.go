// Benchmarks of the public API's simulation speed: the job farm and one
// simulator run. The paper's tables and figures are not benchmarks;
// `gexp -exp all -scale 2 -paper` prints every cell (EXPERIMENTS.md).
//
//	go test -run '^$' -bench . -benchmem
package gpushare_test

import (
	"fmt"
	"runtime"
	"testing"

	"gpushare"
)

// BenchmarkRunnerParallel measures the simulation farm: the same
// six-job matrix executed sequentially (-j 1) and with one worker per
// CPU. Each iteration uses a fresh runner (cold memory cache, no disk
// cache), so the ratio of the two sub-benchmarks' ns/op is the
// parallel speedup; both report simcycles/sec for throughput.
func BenchmarkRunnerParallel(b *testing.B) {
	jobs := make([]gpushare.SimJob, 0, 6)
	for _, name := range []string{"gaussian", "backprop2", "NN"} {
		cfg := gpushare.DefaultConfig()
		jobs = append(jobs, gpushare.SimJob{Workload: name, Config: cfg, Scale: 1})
		shared := cfg
		shared.Sharing = gpushare.ShareRegisters
		shared.Sched = gpushare.SchedOWF
		shared.T = 0.1
		jobs = append(jobs, gpushare.SimJob{Workload: name, Config: shared, Scale: 1})
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"j1", 1},
		{fmt.Sprintf("jNumCPU-%d", runtime.NumCPU()), runtime.NumCPU()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				r := gpushare.NewRunner(gpushare.RunnerOptions{Workers: bc.workers})
				for _, res := range r.RunAll(jobs) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					cycles += res.Stats.Cycles
				}
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/sec")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// cycles and thread-instructions per wall second on one representative
// workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, err := gpushare.WorkloadByName("hotspot")
	if err != nil {
		b.Fatal(err)
	}
	var cycles, instrs int64
	for i := 0; i < b.N; i++ {
		sim, err := gpushare.NewSimulator(gpushare.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		inst := spec.Build(1)
		inst.Setup(sim.Mem)
		st, err := sim.Run(inst.Launch)
		if err != nil {
			b.Fatal(err)
		}
		cycles += st.Cycles
		instrs += st.TotalThreadInstrs()
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/op")
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "thread-instrs/sec")
}
