package tenancy

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/kernel"
)

// TenantAlloc is one tenant's grant on one SM: its block-slot structure,
// as a per-tenant occupancy the SM core reuses for its sharing pairs.
// What the grant holds is core.Footprint of that structure, which the SM
// checks against its capacity when it is built.
type TenantAlloc struct {
	Tenant int // index into Spec.Tenants
	Occ    core.Occupancy
}

// SMPlan lists the tenants granted slots on one SM, in tenant order.
type SMPlan struct {
	Tenants []TenantAlloc
}

// Placement is the admission layer's output: for every SM, which
// tenants run there and with how many block slots.
type Placement struct {
	SMs []SMPlan
}

// alone is a kernel's occupancy on an SM of its own, or an error when
// not one block fits there: every placement starts from this check.
func alone(cfg *config.Config, k *kernel.Kernel) (core.Occupancy, error) {
	occ := core.ComputeOccupancy(cfg, k)
	if occ.Baseline == 0 {
		return occ, fmt.Errorf("kernel %s does not fit on an SM (%s)", k.Name, occ.Limiter)
	}
	return occ, nil
}

// WholeGPU is the placement of a single-kernel run or of one time slice:
// every SM to tenant ti under its solo occupancy.
func WholeGPU(cfg *config.Config, ti int, k *kernel.Kernel) (*Placement, error) {
	occ, err := alone(cfg, k)
	if err != nil {
		return nil, err
	}
	pl := &Placement{SMs: make([]SMPlan, cfg.NumSMs)}
	grant := []TenantAlloc{{Tenant: ti, Occ: occ}}
	for i := range pl.SMs {
		pl.SMs[i].Tenants = grant // read-only, so every SM can share it
	}
	return pl, nil
}

// tenantShape is the per-tenant packing profile: the kernel and its solo
// occupancy on an unshared SM, whose layout a tenant's blocks on any SM
// follow (blocks beyond the solo unshared count pair up two-by-two).
type tenantShape struct {
	k    *kernel.Kernel
	solo core.Occupancy // its Max caps the tenant's slots on any SM
	want int            // total slots worth granting (grid size cap)
}

// allLive marks every slot live: full residency.
func allLive(int) bool { return true }

// blockCost returns the incremental cost of tenant shape t's j-th block
// on an SM (0-indexed within that SM): what j+1 blocks hold at full
// residency less what j hold — a full block for unshared and
// pair-opening blocks, the ⌈t·r⌉ top-up on the shared dimension for
// pair-completing ones.
func (t *tenantShape) blockCost(cfg *config.Config, j int) (regs, smem, threads int) {
	r1, s1 := core.Footprint(cfg, t.k, t.occFor(j+1), allLive)
	r0, s0 := core.Footprint(cfg, t.k, t.occFor(j), allLive)
	return r1 - r0, s1 - s0, t.k.Threads()
}

// occFor builds the occupancy for c blocks of this tenant on one SM:
// the solo layout truncated to c slots, with a dangling pair-opener
// reclassified as unshared (it holds a full allocation either way).
func (t *tenantShape) occFor(c int) core.Occupancy {
	occ := t.solo
	u := c
	p := 0
	if t.solo.Pairs > 0 && c > t.solo.Unshared {
		r := c - t.solo.Unshared
		p = r / 2
		u = t.solo.Unshared + r%2
	}
	occ.Max = c
	occ.Unshared = u
	occ.Pairs = p
	occ.Baseline = u + p
	return occ
}

// shapes derives each tenant's packing profile from its solo occupancy
// on an unshared SM.
func shapes(cfg *config.Config, kernels []*kernel.Launch) ([]tenantShape, error) {
	out := make([]tenantShape, len(kernels))
	for i, l := range kernels {
		solo, err := alone(cfg, l.Kernel)
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		out[i] = tenantShape{k: l.Kernel, solo: solo, want: l.Blocks()}
	}
	return out, nil
}

// Pack runs the admission layer: it decides, per SM, how many block
// slots each tenant gets. Spatial partitioning splits the SMs into
// contiguous disjoint ranges; co-scheduling round-robins one block per
// tenant per round into the SMs under the spec's bin-packing strategy
// until nothing more fits. Time-slicing has no packed placement (each
// slice owns the whole GPU: see WholeGPU) and is rejected here.
func Pack(cfg *config.Config, kernels []*kernel.Launch, spec *Spec) (*Placement, error) {
	if len(kernels) != len(spec.Tenants) {
		return nil, fmt.Errorf("placement needs one launch per tenant: %d launches, %d tenants", len(kernels), len(spec.Tenants))
	}
	switch spec.Policy {
	case Spatial:
		return packSpatial(cfg, kernels)
	case CoSched:
		return packCoSched(cfg, kernels, spec.Packing)
	case TimeSlice:
		return nil, fmt.Errorf("timeslice policy has no spatial placement (each slice owns the whole GPU)")
	}
	return nil, fmt.Errorf("invalid tenancy policy %d", uint8(spec.Policy))
}

// packSpatial gives each tenant a contiguous disjoint SM range at its
// solo occupancy (isolation comes from the disjoint SM sets). SMs divide
// evenly; the remainder goes to the lowest-indexed tenants.
func packSpatial(cfg *config.Config, kernels []*kernel.Launch) (*Placement, error) {
	n := len(kernels)
	if n > cfg.NumSMs {
		return nil, fmt.Errorf("spatial partitioning needs one SM per tenant: %d tenants, %d SMs", n, cfg.NumSMs)
	}
	shs, err := shapes(cfg, kernels)
	if err != nil {
		return nil, err
	}
	pl := &Placement{SMs: make([]SMPlan, cfg.NumSMs)}
	per, rem := cfg.NumSMs/n, cfg.NumSMs%n
	sm := 0
	for ti := range shs {
		count := per
		if ti < rem {
			count++
		}
		for j := 0; j < count; j++ {
			pl.SMs[sm].Tenants = append(pl.SMs[sm].Tenants, TenantAlloc{Tenant: ti, Occ: shs[ti].solo})
			sm++
		}
	}
	return pl, nil
}

// smBin tracks one SM's packing state during co-scheduled admission.
type smBin struct {
	regs, smem, threads, slots int
	counts                     []int // blocks placed per tenant
}

// packCoSched round-robins one block per tenant per round into the SM
// bins. Each block's cost is its tenant-shaped incremental footprint;
// fit is checked against all four SM capacities plus the tenant's
// per-SM slot cap (its solo occupancy). The strategy picks among the
// fitting SMs; rounds continue until a full round places nothing.
func packCoSched(cfg *config.Config, kernels []*kernel.Launch, strategy Packing) (*Placement, error) {
	shs, err := shapes(cfg, kernels)
	if err != nil {
		return nil, err
	}
	bins := make([]smBin, cfg.NumSMs)
	for i := range bins {
		bins[i].counts = make([]int, len(shs))
	}
	placed := make([]int, len(shs))
	for progress := true; progress; {
		progress = false
		for ti := range shs {
			t := &shs[ti]
			if placed[ti] >= t.want {
				continue
			}
			si := pickSM(cfg, bins, t, ti, strategy)
			if si < 0 {
				continue
			}
			r, s, th := t.blockCost(cfg, bins[si].counts[ti])
			bins[si].regs += r
			bins[si].smem += s
			bins[si].threads += th
			bins[si].slots++
			bins[si].counts[ti]++
			placed[ti]++
			progress = true
		}
	}
	for ti, n := range placed {
		if n == 0 {
			return nil, fmt.Errorf("admission failed: tenant %d (%s) fits on no SM under %s packing",
				ti, kernels[ti].Kernel.Name, strategy)
		}
	}
	pl := &Placement{SMs: make([]SMPlan, cfg.NumSMs)}
	for si := range bins {
		for ti, c := range bins[si].counts {
			if c > 0 {
				pl.SMs[si].Tenants = append(pl.SMs[si].Tenants, TenantAlloc{Tenant: ti, Occ: shs[ti].occFor(c)})
			}
		}
	}
	return pl, nil
}

// pickSM returns the SM the strategy places tenant t's next block on,
// or -1 when no SM fits. Ties break toward the lowest SM index, so
// every strategy is deterministic.
func pickSM(cfg *config.Config, bins []smBin, t *tenantShape, ti int, strategy Packing) int {
	best := -1
	var bestSlack float64
	for si := range bins {
		b := &bins[si]
		if b.counts[ti] >= t.solo.Max {
			continue
		}
		r, s, th := t.blockCost(cfg, b.counts[ti])
		if b.regs+r > cfg.RegsPerSM || b.smem+s > cfg.SmemPerSM ||
			b.threads+th > cfg.MaxThreadsPerSM || b.slots+1 > cfg.MaxBlocksPerSM {
			continue
		}
		if strategy == FirstFit {
			return si
		}
		slack := normSlack(cfg, b, r, s, th)
		if best < 0 ||
			(strategy == BestFit && slack < bestSlack) ||
			(strategy == WorstFit && slack > bestSlack) {
			best, bestSlack = si, slack
		}
	}
	return best
}

// normSlack is the normalized remaining capacity of a bin after a
// hypothetical placement, summed over the four resource dimensions.
func normSlack(cfg *config.Config, b *smBin, r, s, th int) float64 {
	slack := float64(cfg.RegsPerSM-b.regs-r) / float64(cfg.RegsPerSM)
	slack += float64(cfg.SmemPerSM-b.smem-s) / float64(cfg.SmemPerSM)
	slack += float64(cfg.MaxThreadsPerSM-b.threads-th) / float64(cfg.MaxThreadsPerSM)
	slack += float64(cfg.MaxBlocksPerSM-b.slots-1) / float64(cfg.MaxBlocksPerSM)
	return slack
}
