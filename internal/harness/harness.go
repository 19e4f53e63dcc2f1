// Package harness reproduces the paper's evaluation: one experiment per
// table and figure (§VI), each emitting the same rows/series the paper
// reports. An experiment is declared as data — rows of cells, each cell
// naming the simulations it needs and a pure function of their
// statistics — and a Session renders it: enumerate the simulations, run
// them on the internal/runner farm (which deduplicates and caches, so
// experiments sharing a configuration, e.g. the Unshared-LRR baseline,
// simulate it once), reduce the cells.
package harness

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"gpushare/internal/config"
	"gpushare/internal/runner"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
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

// Markdown renders the table as a GitHub-flavoured Markdown table, the
// one rendering of a table (gexp prints it; EXPERIMENTS.md is its
// output). Numbers are printed with two decimals. When ref is non-nil,
// each measured cell the paper quotes is followed by the paper's value
// in parentheses, and the experiment's PaperNotes caveat follows the
// table.
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
		// A tenancy row names its tenants "a|b"; a bare pipe would split
		// the cell.
		fmt.Fprintf(&b, "| %s |", strings.ReplaceAll(r.Name, "|", `\|`))
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
	if note := PaperNotes[t.ID]; ref != nil && note != "" {
		fmt.Fprintf(&b, "\n*paper note: %s*\n", note)
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

// sim declares one simulation a cell needs: a registry workload (or,
// for a multi-kernel run, a tenancy spec) under a configuration. The
// label only decorates progress lines, errors and soft-fail notes —
// memoization is content-addressed on the job itself, so two labels
// naming identical configurations share one simulation.
type sim struct {
	workload string        // registry name ("" for a tenancy run)
	tenancy  *tenancy.Spec // nil for a single kernel
	label    string
	cfg      config.Config
}

// cell declares one table cell: the simulations it needs and a pure
// function from their statistics (in the same order) to the number.
// Analytic cells (occupancy math, storage formulas) declare none.
type cell struct {
	sims []sim
	val  func(g []*stats.GPU) float64
}

// row declares one table row.
type row struct {
	name  string
	cells []cell
}

// experiment declares one table or figure of the evaluation. It is pure
// data: which simulations exist is known without running anything, so
// planning a sweep is enumeration.
type experiment struct {
	id, title string
	columns   []string
	notes     string
	rows      []row
}

// sims lists the experiment's simulations in declaration order: rows
// top to bottom, cells left to right, each cell's own order. Failures
// surface in this order.
func (e *experiment) sims() []sim {
	var out []sim
	for _, r := range e.rows {
		for _, c := range r.cells {
			out = append(out, c.sims...)
		}
	}
	return out
}

// registry holds the declared experiments by id and their ids in
// declaration order.
type registry struct {
	byID map[string]*experiment
	ids  []string
}

// experiments is the registry, declared on first use: a process that
// never renders an experiment (the daemons import this package through
// the facade) builds none.
var experiments = sync.OnceValue(func() registry {
	r := registry{byID: map[string]*experiment{}}
	for _, e := range slices.Concat(paperExperiments(), ablationExperiments(), tenancyExperiments()) {
		r.byID[e.id] = &e
		r.ids = append(r.ids, e.id)
	}
	return r
})

func lookup(id string) (*experiment, error) {
	e, ok := experiments().byID[id]
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return e, nil
}

// IDs returns every experiment id in declaration order: the paper's
// figures and tables, hw, the ext-* studies, then the ten-* tenancy
// tables. It is the order of gexp -exp all and of EXPERIMENTS.md.
func IDs() []string { return slices.Clone(experiments().ids) }

// Session renders experiments on top of the internal/runner job farm:
// every declared simulation becomes a descriptor-addressed job, results
// are memoized in the runner's two-tier cache, and an experiment's (or,
// through Precompute, several experiments') whole job matrix runs on the
// worker pool before the cells are reduced. Simulations are
// deterministic, so parallel and sequential sessions produce
// bit-identical tables.
type Session struct {
	// Scale multiplies workload grid sizes; 2 is the experiment default,
	// 1 suits quick runs and benchmarks.
	Scale int
	// InvariantStride, when positive, runs every simulation with the
	// cycle-level invariant auditor enabled at that stride. Audited and
	// unaudited runs cache under different keys (the stride is part of
	// the canonical configuration).
	InvariantStride int64
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
	// Runner configures the farm: Workers (0 = runtime.GOMAXPROCS(0);
	// 1 is strictly sequential, in declaration order), CacheDir, Verify,
	// Progress (a line per fresh simulation plus sweep progress),
	// checkpoints. It is read once, at the session's first simulation.
	Runner runner.Options

	once sync.Once
	r    *runner.Runner
}

// NewSession returns a session at the given scale.
func NewSession(scale int) *Session {
	if scale <= 0 {
		scale = 2
	}
	return &Session{Scale: scale}
}

func (s *Session) runner() *runner.Runner {
	s.once.Do(func() { s.r = runner.New(s.Runner) })
	return s.r
}

// Counters reports the session's cumulative job statistics (cache hits,
// fresh simulations, failures).
func (s *Session) Counters() runner.Counters { return s.runner().Counters() }

// context returns the session's bounding context.
func (s *Session) context() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// job turns a declared simulation into the runner's descriptor. It is
// the one place the session's scale and audit stride are applied, for
// single-kernel and tenancy runs alike; the stride uniformly overrides
// per-configuration values so one sweep audits at one rate.
func (s *Session) job(sm sim) runner.Job {
	cfg := sm.cfg
	if s.InvariantStride > 0 {
		cfg.InvariantStride = s.InvariantStride
	}
	return runner.Job{Workload: sm.workload, Config: cfg, Scale: s.Scale, Tenancy: sm.tenancy}
}

// simulate hands every simulation the experiments declare to the farm,
// which deduplicates, pools and caches them, and returns one result per
// declared simulation in declaration order.
func (s *Session) simulate(exps ...*experiment) []runner.Result {
	var jobs []runner.Job
	for _, e := range exps {
		for _, sm := range e.sims() {
			jobs = append(jobs, s.job(sm))
		}
	}
	return s.runner().RunAllCtx(s.context(), jobs)
}

// Precompute runs the deduplicated job set of all the listed experiments
// as one sweep, so the subsequent Experiment calls assemble their tables
// from pure cache hits. Individual job failures are not reported here:
// the experiment that needs the failed result surfaces the error exactly
// where a sequential run would.
func (s *Session) Precompute(ids ...string) error {
	exps := make([]*experiment, len(ids))
	for i, id := range ids {
		e, err := lookup(id)
		if err != nil {
			return err
		}
		exps[i] = e
	}
	s.simulate(exps...)
	// An interrupted sweep keeps its completed (and cached) partial
	// results but reports the interruption instead of letting the
	// caller assemble half-empty tables.
	if err := context.Cause(s.context()); err != nil {
		return fmt.Errorf("precompute interrupted: %w", err)
	}
	return nil
}

// Experiment runs the experiment with the given id ("fig8c", "table5",
// "hw", ...): its simulations on the farm, then its cells in
// declaration order. The first failed simulation in that order is the
// error; in SoftFail mode its cells are computed from zeroed statistics
// instead and the diagnoses, one per simulation, are appended to the
// table notes.
func (s *Session) Experiment(id string) (*Table, error) {
	e, err := lookup(id)
	if err != nil {
		return nil, err
	}
	res := s.simulate(e)
	t := &Table{ID: e.id, Title: e.title, Columns: e.columns, Notes: e.notes}
	var failed []string
	seen := map[string]bool{} // simulations already reported or noted
	for _, r := range e.rows {
		rd := RowData{Name: r.name}
		for _, c := range r.cells {
			g := make([]*stats.GPU, len(c.sims))
			for i, sm := range c.sims {
				out := res[0]
				res = res[1:]
				// A tenancy run has no single workload name; its job
				// label names the mix.
				name := sm.workload
				if sm.tenancy != nil {
					name = out.Job.String()
				}
				switch {
				case out.Err == nil:
					g[i] = out.Stats
					if s.Runner.Progress != nil && out.Tier == runner.Simulated && !seen[out.Key] {
						seen[out.Key] = true
						s.Runner.Progress(fmt.Sprintf("%-10s %-24s IPC %7.2f  cycles %9d", name, sm.label, g[i].IPC(), g[i].Cycles))
					}
				case s.SoftFail && !runner.IsCanceled(out.Err):
					g[i] = &stats.GPU{}
					if at := name + "|" + sm.label; !seen[at] {
						seen[at] = true
						failed = append(failed, fmt.Sprintf("%s under %s: %v", name, sm.label, out.Err))
					}
				default:
					return nil, fmt.Errorf("%s under %s: %w", name, sm.label, out.Err)
				}
			}
			rd.Cells = append(rd.Cells, c.val(g))
		}
		t.Rows = append(t.Rows, rd)
	}
	if len(failed) > 0 {
		if t.Notes != "" {
			t.Notes += "; "
		}
		t.Notes += fmt.Sprintf("%d failed cell(s) zeroed: %s", len(failed), strings.Join(failed, " | "))
	}
	return t, nil
}
