// Package runner turns every simulation into a descriptor-addressed
// job and executes whole experiment matrices concurrently: a canonical
// JobKey (a stable hash of workload, configuration, grid scale) indexes
// a two-tier result cache (in-memory LRU over an on-disk JSON store,
// versioned by simulator fingerprint), and a worker pool drains the job
// queue with per-job panic capture, timeout, and bounded retry so one
// diverging simulation cannot kill a sweep. Simulations are
// deterministic, so a parallel run produces bit-identical statistics to
// a sequential one; internal/harness builds the paper's tables on top.
package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"gpushare/internal/config"
	"gpushare/internal/gpu"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
	"gpushare/internal/workloads"
)

// Job describes one simulation: a workload (by registry name), the full
// simulator configuration, and the grid scale. A Job is pure data — the
// same descriptor always denotes the same deterministic simulation — so
// results are cached under its content-addressed Key.
type Job struct {
	Workload string
	Config   config.Config
	Scale    int

	// Tenancy, when non-nil, makes this a multi-kernel job: the spec's
	// tenants run concurrently under its policy (internal/tenancy) and
	// Workload is ignored. Tenants whose Scale is 0 inherit the job's
	// Scale. The spec is part of the cache key.
	Tenancy *tenancy.Spec
}

// Label names what the job runs: the workload for a single kernel,
// "policy(tenant+tenant)" for a multi-kernel job.
func (j Job) Label() string {
	if j.Tenancy == nil {
		return j.Workload
	}
	names := make([]string, len(j.Tenancy.Tenants))
	for i := range names {
		names[i] = j.Tenancy.TenantName(i)
	}
	return fmt.Sprintf("%s(%s)", j.Tenancy.Policy, strings.Join(names, "+"))
}

// String renders a short human-readable job label for errors and logs.
func (j Job) String() string {
	return fmt.Sprintf("%s [%s] scale=%d", j.Label(), j.Config.String(), j.Scale)
}

// Key returns the job's content-addressed identity: the hex SHA-256 of
// the canonical serialization of (workload, scale, config, and — only
// when present — the tenancy spec). Single-kernel jobs serialize exactly
// as they did before multi-tenancy existed, so their cached results stay
// addressable. Code version is deliberately not part of the key — cache
// entries carry the simulator fingerprint separately, so a fingerprint
// change invalidates stored results without changing job identity.
func (j Job) Key() (string, error) {
	cfg, err := j.Config.CanonicalJSON()
	if err != nil {
		return "", fmt.Errorf("runner: serialize config: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "{\"workload\":%q,\"scale\":%d,\"config\":", j.Workload, j.Scale)
	h.Write(cfg)
	if j.Tenancy != nil {
		ten, err := json.Marshal(j.Tenancy)
		if err != nil {
			return "", fmt.Errorf("runner: serialize tenancy spec: %w", err)
		}
		h.Write([]byte(`,"tenancy":`))
		h.Write(ten)
	}
	h.Write([]byte{'}'})
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Fingerprint identifies the simulator code revision that produced a
// cached result: gpu.Version (bumped manually on behavioural changes)
// plus, when the binary carries VCS build info, the commit revision and
// a dirty marker. A dirty build also carries a digest of its own
// executable, since two edited builds at one revision are different
// simulators. Cached entries whose fingerprint differs from the running
// binary's are re-simulated, never trusted.
func Fingerprint() string {
	rev, dirty := VCS()
	exe := ""
	if dirty {
		exe = executableDigest()
	}
	return fingerprint(gpu.Version, rev, dirty, exe)
}

// fingerprint composes Fingerprint from its parts; exe counts only for
// a dirty build.
func fingerprint(version, rev string, dirty bool, exe string) string {
	fp := version
	if rev != "" {
		fp += "+" + rev
	}
	if dirty {
		fp += "+dirty+" + exe
	}
	return fp
}

// executableDigest is a short SHA-256 of the running binary, computed
// once per process (server.Build asks for the fingerprint on every
// /statusz). When the binary cannot be read it is a per-process nonce:
// such a build then trusts no cache entry but its own.
var executableDigest = sync.OnceValue(func() string {
	h := sha256.New()
	path, err := os.Executable()
	if err == nil {
		var f *os.File
		if f, err = os.Open(path); err == nil {
			_, err = io.Copy(h, f)
			f.Close()
		}
	}
	if err != nil {
		h.Reset()
		fmt.Fprintf(h, "nonce %d %d", os.Getpid(), time.Now().UnixNano())
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
})

// VCS reports the commit revision and dirty marker the binary was built
// from; both are zero when it carries no VCS build info.
func VCS() (revision string, dirty bool) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				revision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	return revision, dirty
}

// simulate executes the job's simulation from scratch or from a
// checkpoint. A single-kernel job is the one-tenant case: every
// tenant's workload is rebuilt at its own scale (falling back to the
// job's), staged into the one shared memory system in tenant order, and
// run under the job's configuration with the caller's context
// (cancellation stops the cycle loop within one stride). With so.verify
// set, each tenant's functional check runs against the final memory
// image — co-residency must not corrupt any tenant's output. When
// so.sink is set the run writes machine snapshots every so.stride
// cycles; when so.restore is set the run resumes from that snapshot
// instead of cycle 0.
func simulate(ctx context.Context, j Job, so simOpts) (*stats.GPU, error) {
	ten := j.Tenancy
	tenants := []tenancy.TenantSpec{{Workload: j.Workload}}
	if ten != nil {
		if err := ten.Validate(&j.Config); err != nil {
			return nil, err
		}
		tenants = ten.Tenants
	}
	// blame names the tenant in a multi-kernel job's errors.
	blame := func(i int, err error) error {
		if ten == nil {
			return err
		}
		return fmt.Errorf("tenant %q: %w", ten.TenantName(i), err)
	}
	cfg := j.Config
	if so.stride > 0 {
		cfg.CheckpointStride = so.stride
	}
	sim, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	sim.CheckpointSink = so.sink
	sim.RestoreFrom = so.restore
	launches := make([]*kernel.Launch, len(tenants))
	checks := make([]func(*mem.Global) error, len(tenants))
	for i, t := range tenants {
		spec, err := workloads.ByName(t.Workload)
		if err != nil {
			return nil, blame(i, err)
		}
		scale := t.Scale
		if scale == 0 {
			scale = j.Scale
		}
		inst := spec.Build(scale)
		inst.Setup(sim.Mem)
		launches[i], checks[i] = inst.Launch, inst.Check
	}
	var g *stats.GPU
	if ten == nil {
		g, err = sim.RunCtx(ctx, launches[0])
	} else {
		g, err = sim.RunMultiCtx(ctx, ten, launches)
	}
	if err != nil {
		return nil, err
	}
	if so.verify {
		for i, check := range checks {
			if check == nil {
				continue
			}
			if err := check(sim.Mem); err != nil {
				return nil, blame(i, fmt.Errorf("functional check failed: %w", err))
			}
		}
	}
	return g, nil
}
