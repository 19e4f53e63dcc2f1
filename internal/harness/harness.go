// Package harness reproduces the paper's evaluation: one experiment per
// table and figure (§VI), each emitting the same rows/series the paper
// reports. A Session caches simulation runs so experiments that share a
// configuration (e.g. the Unshared-LRR baseline) do not re-simulate it.
package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"gpushare/internal/config"
	"gpushare/internal/runner"
	"gpushare/internal/stats"
	"gpushare/internal/workloads"
)

// Table is one experiment's result in paper layout: one row per
// application (or per sharing percentage), one column per series.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []RowData
	Notes   string
}

// RowData is one table row.
type RowData struct {
	Name  string
	Cells []float64
}

// Format renders the table as aligned text. Numbers are printed with
// two decimals.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	w := 12
	for _, c := range t.Columns {
		if len(c)+2 > w {
			w = len(c) + 2
		}
	}
	fmt.Fprintf(&b, "%-12s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", w, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s", r.Name)
		for _, v := range r.Cells {
			fmt.Fprintf(&b, "%*.2f", w, v)
		}
		b.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured Markdown table. When
// ref is non-nil, each measured cell is followed by the paper's value in
// parentheses.
func (t *Table) Markdown(ref PaperRef) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| workload |")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %s |", c)
	}
	b.WriteString("\n|---|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |", r.Name)
		for ci, v := range r.Cells {
			cell := fmt.Sprintf(" %.2f", v)
			if ref != nil {
				if pv, ok := ref[r.Name][t.Columns[ci]]; ok {
					cell += fmt.Sprintf(" *(paper: %.2f)*", pv)
				}
			}
			b.WriteString(cell + " |")
		}
		b.WriteString("\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n*note: %s*\n", t.Notes)
	}
	b.WriteString("\n")
	return b.String()
}

// Cell returns the value at (rowName, column), or NaN-like zero with ok
// false when absent.
func (t *Table) Cell(rowName, column string) (float64, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Name == rowName {
			return r.Cells[ci], true
		}
	}
	return 0, false
}

// ConfigName identifies a canonical simulator configuration, using the
// paper's labels.
type ConfigName string

// Canonical configurations from the paper's figures.
const (
	UnsharedLRR      ConfigName = "Unshared-LRR"
	UnsharedGTO      ConfigName = "Unshared-GTO"
	Unshared2LVL     ConfigName = "Unshared-2LVL"
	SharedLRRNoOpt   ConfigName = "Shared-LRR-NoOpt"
	SharedLRRUnroll  ConfigName = "Shared-LRR-Unroll"
	SharedLRRUnrDyn  ConfigName = "Shared-LRR-Unroll-Dyn"
	SharedOWFUnrDyn  ConfigName = "Shared-OWF-Unroll-Dyn"
	SharedOWF        ConfigName = "Shared-OWF" // scratchpad: no unroll/dyn
	SharedGTO        ConfigName = "Shared-GTO"
	SharedGTOUnrDyn  ConfigName = "Shared-GTO-Unroll-Dyn"
	UnsharedLRR2xReg ConfigName = "Unshared-LRR-Reg#65536"
	UnsharedLRR2xShm ConfigName = "Unshared-LRR-ShMem#32K"
)

// buildConfig materializes a named configuration for a workload's
// sharing mode with threshold t.
func buildConfig(name ConfigName, mode config.SharingMode, t float64) config.Config {
	cfg := config.Default()
	switch name {
	case UnsharedLRR:
	case UnsharedGTO:
		cfg.Sched = config.SchedGTO
	case Unshared2LVL:
		cfg.Sched = config.SchedTwoLevel
	case UnsharedLRR2xReg:
		cfg.RegsPerSM *= 2
	case UnsharedLRR2xShm:
		cfg.SmemPerSM *= 2
	case SharedLRRNoOpt:
		cfg.Sharing, cfg.T = mode, t
	case SharedLRRUnroll:
		cfg.Sharing, cfg.T = mode, t
		cfg.UnrollRegs = true
	case SharedLRRUnrDyn:
		cfg.Sharing, cfg.T = mode, t
		cfg.UnrollRegs, cfg.DynWarp = true, true
	case SharedOWFUnrDyn:
		cfg.Sharing, cfg.T = mode, t
		cfg.Sched = config.SchedOWF
		cfg.UnrollRegs, cfg.DynWarp = true, true
	case SharedOWF:
		cfg.Sharing, cfg.T = mode, t
		cfg.Sched = config.SchedOWF
	case SharedGTO:
		cfg.Sharing, cfg.T = mode, t
		cfg.Sched = config.SchedGTO
	case SharedGTOUnrDyn:
		cfg.Sharing, cfg.T = mode, t
		cfg.Sched = config.SchedGTO
		cfg.UnrollRegs, cfg.DynWarp = true, true
	default:
		panic(fmt.Sprintf("harness: unknown configuration %q", name))
	}
	return cfg
}

// sharingModeFor returns the sharing mode the paper evaluates a workload
// set under.
func sharingModeFor(s *workloads.Spec) config.SharingMode {
	if s.Set == workloads.Set2 {
		return config.ShareScratchpad
	}
	return config.ShareRegisters
}

// Session runs experiments on top of the internal/runner job farm:
// every simulation becomes a descriptor-addressed job, results are
// memoized in the runner's two-tier cache (in-memory, plus on-disk when
// CacheDir is set), and Precompute executes an experiment's whole job
// matrix concurrently before the tables are assembled. Simulations are
// deterministic, so parallel and sequential sessions produce
// bit-identical tables.
type Session struct {
	// Scale multiplies workload grid sizes; 2 is the experiment default,
	// 1 suits quick runs and benchmarks.
	Scale int
	// Verify re-checks functional outputs after every fresh run.
	Verify bool
	// Progress, when non-nil, receives a line per simulation run plus
	// sweep progress during Precompute.
	Progress func(string)
	// Workers bounds concurrent simulations during Precompute
	// (0 = runtime.GOMAXPROCS(0); 1 preserves sequential execution).
	Workers int
	// CacheDir enables the runner's on-disk result cache, reused across
	// processes ("" disables it).
	CacheDir string
	// InvariantStride, when positive, runs every simulation with the
	// cycle-level invariant auditor enabled at that stride. Audited and
	// unaudited runs cache under different keys (the stride is part of
	// the canonical configuration).
	InvariantStride int64
	// CheckpointDir enables crash-tolerant simulations: each running job
	// snapshots its machine state under this directory every
	// CheckpointStride cycles, and a retried attempt (panic, timeout)
	// resumes from the newest snapshot instead of cycle 0. Results are
	// bit-identical with or without checkpoints ("" disables).
	CheckpointDir string
	// CheckpointStride is the snapshot cadence in cycles (with
	// CheckpointDir; 0 leaves each job's own configuration in charge).
	CheckpointStride int64
	// SoftFail renders a failed simulation as a zero-filled table cell
	// with its diagnosis collected into the table notes, instead of
	// aborting the whole experiment. One diverging cell cannot kill a
	// sweep. Cancellations are exempt: an interrupted session aborts
	// with the cancellation error rather than emitting zeroed cells.
	SoftFail bool
	// Ctx, when non-nil, bounds every simulation the session runs.
	// Cancellation (e.g. SIGINT through signal.NotifyContext) stops
	// in-flight simulations within one cancellation stride of the cycle
	// loop; results completed before the interrupt stay cached, and the
	// disk store stays consistent (entries are written atomically).
	Ctx context.Context

	mu sync.Mutex
	r  *runner.Runner
	// record, when non-nil, captures jobs instead of executing them
	// (the planning pass of Precompute).
	record func(runner.Job)

	failMu   sync.Mutex
	failSeen map[string]bool
	failures []string
}

// NewSession returns a session at the given scale.
func NewSession(scale int) *Session {
	if scale <= 0 {
		scale = 2
	}
	return &Session{Scale: scale}
}

// runner lazily builds the job runner so that Verify, Workers, and
// CacheDir may be assigned any time before the first Run.
func (s *Session) runner() *runner.Runner {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.r == nil {
		s.r = runner.New(runner.Options{
			Workers:          s.Workers,
			CacheDir:         s.CacheDir,
			Verify:           s.Verify,
			Progress:         s.Progress,
			CheckpointDir:    s.CheckpointDir,
			CheckpointStride: s.CheckpointStride,
		})
	}
	return s.r
}

// Counters reports the session's cumulative job statistics (cache hits,
// fresh simulations, failures).
func (s *Session) Counters() runner.Counters { return s.runner().Counters() }

// Run executes a workload under a named configuration (memoized).
func (s *Session) Run(spec *workloads.Spec, name ConfigName, t float64) (*stats.GPU, error) {
	return s.exec(spec, string(name), buildConfig(name, sharingModeFor(spec), t))
}

// exec routes one simulation request through the runner. During a
// Precompute planning pass it records the job descriptor and returns
// placeholder statistics instead.
func (s *Session) exec(spec *workloads.Spec, label string, cfg config.Config) (*stats.GPU, error) {
	if s.InvariantStride > 0 {
		cfg.InvariantStride = s.InvariantStride
	}
	job := runner.Job{Workload: spec.Name, Config: cfg, Scale: s.Scale}
	if s.record != nil {
		s.record(job)
		return &stats.GPU{}, nil
	}
	res := s.runner().DoCtx(s.context(), job)
	if res.Err != nil {
		if s.SoftFail && !runner.IsCanceled(res.Err) {
			s.noteFailure(spec.Name, label, res.Err)
			return &stats.GPU{}, nil
		}
		return nil, fmt.Errorf("%s under %s: %w", spec.Name, label, res.Err)
	}
	if s.Progress != nil && res.Tier == runner.Simulated {
		s.Progress(fmt.Sprintf("%-10s %-24s IPC %7.2f  cycles %9d", spec.Name, label, res.Stats.IPC(), res.Stats.Cycles))
	}
	return res.Stats, nil
}

// Precompute collects every simulation the listed experiments request
// and executes the deduplicated job set concurrently through the
// runner's worker pool, so the subsequent Experiment calls assemble
// their tables from pure cache hits. Individual job failures are not
// reported here: the experiment that needs the failed result surfaces
// the error exactly where a sequential run would.
func (s *Session) Precompute(ids ...string) error {
	var (
		jobs []runner.Job
		seen = map[string]bool{}
	)
	plan := &Session{
		Scale:           s.Scale,
		InvariantStride: s.InvariantStride,
		record: func(j runner.Job) {
			key, err := j.Key()
			if err != nil || seen[key] {
				return
			}
			seen[key] = true
			jobs = append(jobs, j)
		},
	}
	for _, id := range ids {
		fn, ok := experiments[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
		}
		// The planning pass sees placeholder statistics, so experiment
		// errors here can only be workload-lookup failures; they recur
		// in the real pass with full context.
		if _, err := fn(plan); err != nil {
			return err
		}
	}
	ctx := s.context()
	s.runner().RunAllCtx(ctx, jobs)
	// An interrupted sweep keeps its completed (and cached) partial
	// results but reports the interruption instead of letting the
	// caller assemble half-empty tables.
	if err := context.Cause(ctx); err != nil {
		return fmt.Errorf("precompute interrupted: %w", err)
	}
	return nil
}

// context returns the session's bounding context.
func (s *Session) context() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// noteFailure records one failed simulation for the current experiment's
// table notes (SoftFail mode), deduplicating repeated requests for the
// same cell. Typed SimErrors contribute their single-line diagnosis
// header (kind, cycle, stuck warp, stall reason).
func (s *Session) noteFailure(workload, label string, err error) {
	note := fmt.Sprintf("%s under %s: %v", workload, label, err)
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if s.failSeen == nil {
		s.failSeen = make(map[string]bool)
	}
	key := workload + "|" + label
	if s.failSeen[key] {
		return
	}
	s.failSeen[key] = true
	s.failures = append(s.failures, note)
}

// takeFailures drains the failure notes collected since the last call.
func (s *Session) takeFailures() []string {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	f := s.failures
	s.failures = nil
	s.failSeen = nil
	return f
}

// Experiment runs the experiment with the given id ("fig8c", "table5",
// "hw", ...). In SoftFail mode, cells whose simulation failed are zero
// and the diagnoses are appended to the table notes.
func (s *Session) Experiment(id string) (*Table, error) {
	fn, ok := experiments[id]
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	s.takeFailures() // discard leftovers from a previous experiment
	tbl, err := fn(s)
	if err != nil || tbl == nil {
		return tbl, err
	}
	if notes := s.takeFailures(); len(notes) > 0 {
		msg := fmt.Sprintf("%d failed cell(s) zeroed: %s", len(notes), strings.Join(notes, " | "))
		if tbl.Notes != "" {
			tbl.Notes += "; "
		}
		tbl.Notes += msg
	}
	return tbl, nil
}

var experiments = map[string]func(*Session) (*Table, error){}

func registerExperiment(id string, fn func(*Session) (*Table, error)) {
	experiments[id] = fn
}

// IDs returns every experiment id in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
