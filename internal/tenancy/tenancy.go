// Package tenancy lets one simulated GPU run several kernels at once.
// It defines the multi-kernel descriptor (Spec) and the bin-packing
// admission layer (Pack) that decides where each tenant's blocks live.
// Every Placement comes from here: Pack's, or WholeGPU's for a
// single-kernel run or a time slice; the SM checks it against its own
// capacity once, when it is built.
//
// Three policies are supported:
//
//   - Spatial (MIG analog): tenants get disjoint contiguous SM ranges
//     with the full per-SM resources — hard isolation, no interference
//     except in the shared L2 and DRAM.
//   - CoSched (MPS analog): blocks from different kernels are
//     co-resident on the same SMs, each tenant in its own block slots,
//     and what all of them hold fits the SM's registers, scratchpad,
//     threads and block slots; intra-kernel resource sharing (the
//     paper's pair mechanism) keeps working within each tenant's slots.
//   - TimeSlice: tenants own the whole GPU in turns, with deterministic
//     context switches at cycle-quota boundaries.
//
// Every decision is a pure function of (config, kernels, spec), so
// multi-tenant runs stay bit-deterministic and cache-key addressable.
package tenancy

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/workloads"
)

// Policy selects how tenants share the GPU.
type Policy uint8

// Sharing policies.
const (
	Spatial   Policy = 1 + iota // disjoint SM partitions (MIG analog)
	CoSched                     // SM-level co-scheduling within SM capacity (MPS analog)
	TimeSlice                   // cycle-quota time slicing
)

func (p Policy) String() string {
	switch p {
	case Spatial:
		return "spatial"
	case CoSched:
		return "cosched"
	case TimeSlice:
		return "timeslice"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// ParsePolicy converts a policy name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "spatial":
		return Spatial, nil
	case "cosched":
		return CoSched, nil
	case "timeslice":
		return TimeSlice, nil
	}
	return 0, fmt.Errorf("unknown tenancy policy %q (want spatial, cosched, or timeslice)", s)
}

// MarshalText encodes the policy as its name.
func (p Policy) MarshalText() ([]byte, error) {
	switch p {
	case Spatial, CoSched, TimeSlice:
		return []byte(p.String()), nil
	}
	return nil, fmt.Errorf("invalid tenancy policy %d", uint8(p))
}

// UnmarshalText decodes a policy name.
func (p *Policy) UnmarshalText(b []byte) error {
	v, err := ParsePolicy(string(b))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// Packing selects the bin-packing strategy the co-scheduling admission
// layer uses to pick an SM for each block.
type Packing uint8

// Packing strategies. FirstFit is the zero value and the default.
const (
	FirstFit Packing = iota // lowest-numbered SM that fits
	BestFit                 // SM left with the least normalized slack
	WorstFit                // SM left with the most normalized slack
)

func (p Packing) String() string {
	switch p {
	case FirstFit:
		return "firstfit"
	case BestFit:
		return "bestfit"
	case WorstFit:
		return "worstfit"
	}
	return fmt.Sprintf("Packing(%d)", uint8(p))
}

// ParsePacking converts a packing-strategy name to a Packing.
func ParsePacking(s string) (Packing, error) {
	switch s {
	case "", "firstfit":
		return FirstFit, nil
	case "bestfit":
		return BestFit, nil
	case "worstfit":
		return WorstFit, nil
	}
	return 0, fmt.Errorf("unknown packing strategy %q (want firstfit, bestfit, or worstfit)", s)
}

// MarshalText encodes the strategy as its name.
func (p Packing) MarshalText() ([]byte, error) {
	switch p {
	case FirstFit, BestFit, WorstFit:
		return []byte(p.String()), nil
	}
	return nil, fmt.Errorf("invalid packing strategy %d", uint8(p))
}

// UnmarshalText decodes a strategy name.
func (p *Packing) UnmarshalText(b []byte) error {
	v, err := ParsePacking(string(b))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// TenantSpec names one tenant: a workload from the registry plus an
// optional display name and grid scale.
type TenantSpec struct {
	Name     string `json:"name,omitempty"` // defaults to the workload name
	Workload string `json:"workload"`
	Scale    int    `json:"scale,omitempty"` // 0 = inherit the job's scale
}

// Spec is the multi-kernel descriptor: which tenants run and under
// which policy. It marshals to canonical JSON (struct field order), so
// it can ride in the runner's content-addressed job key and gserved's
// submit body.
type Spec struct {
	Policy  Policy  `json:"policy"`
	Packing Packing `json:"packing,omitempty"`
	// QuotaCycles is the time-slice quantum; required for (and only
	// valid with) the TimeSlice policy.
	QuotaCycles int64        `json:"quota_cycles,omitempty"`
	Tenants     []TenantSpec `json:"tenants"`
}

// CheckStructure enforces the spec's structural rules under cfg: a
// defined policy and packing, a quota exactly when time-slicing, at
// least one tenant, and no dynamic warp execution (its SM0-reference
// design has no per-tenant meaning). Validate and gpu.RunMultiCtx both
// apply it, so a job admitted at submission is not refused at run time.
func (s *Spec) CheckStructure(cfg *config.Config) error {
	if cfg.DynWarp {
		return fmt.Errorf("multi-tenant runs do not support dynamic warp execution (DynWarp)")
	}
	switch s.Policy {
	case Spatial, CoSched, TimeSlice:
	default:
		return fmt.Errorf("invalid tenancy policy %d", uint8(s.Policy))
	}
	switch s.Packing {
	case FirstFit, BestFit, WorstFit:
	default:
		return fmt.Errorf("invalid packing strategy %d", uint8(s.Packing))
	}
	if s.Policy == TimeSlice {
		if s.QuotaCycles <= 0 {
			return fmt.Errorf("timeslice policy requires quota_cycles > 0")
		}
	} else if s.QuotaCycles != 0 {
		return fmt.Errorf("quota_cycles is only valid with the timeslice policy")
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("tenancy spec needs at least one tenant")
	}
	return nil
}

// Validate checks the spec's structural rules under cfg
// (CheckStructure), then that every tenant's workload resolves in the
// registry.
func (s *Spec) Validate(cfg *config.Config) error {
	if err := s.CheckStructure(cfg); err != nil {
		return err
	}
	for i, t := range s.Tenants {
		if t.Workload == "" {
			return fmt.Errorf("tenant %d: workload is required", i)
		}
		if _, err := workloads.ByName(t.Workload); err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
		if t.Scale < 0 {
			return fmt.Errorf("tenant %d: scale must be non-negative, got %d", i, t.Scale)
		}
	}
	return nil
}

// TenantName returns tenant i's display name (the workload name unless
// overridden).
func (s *Spec) TenantName(i int) string {
	if s.Tenants[i].Name != "" {
		return s.Tenants[i].Name
	}
	return s.Tenants[i].Workload
}
