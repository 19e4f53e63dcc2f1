package harness

import (
	"os"
	"slices"
	"strings"
	"testing"

	"gpushare/internal/stats"
	"gpushare/internal/workloads"
)

// declareForTest registers a test-local experiment for the duration of
// one test, so the test drives it through the public Session.Experiment.
func declareForTest(t *testing.T, e experiment) {
	t.Helper()
	if _, dup := experiments().byID[e.id]; dup {
		t.Fatalf("experiment id %q already declared", e.id)
	}
	experiments().byID[e.id] = &e
	t.Cleanup(func() { delete(experiments().byID, e.id) })
}

// ipcRow declares a one-row experiment with one IPC cell per simulation.
func ipcRow(id string, sims ...sim) experiment {
	e := experiment{id: id, title: id, rows: []row{{name: "row"}}}
	for _, sm := range sims {
		e.columns = append(e.columns, sm.label)
		e.rows[0].cells = append(e.rows[0].cells, ipc(sm))
	}
	return e
}

func TestExperimentIDsComplete(t *testing.T) {
	// One experiment per paper artifact, in declaration order: the paper's
	// figures and tables, hw, the ext-* studies, then the ten-* tables.
	want := []string{
		"fig1a", "fig1b", "fig1c", "fig1d",
		"fig8a", "fig8b", "fig8c", "fig8d",
		"fig9a", "fig9b", "fig9c", "fig9d",
		"fig10a", "fig10b", "fig10c", "fig10d",
		"fig11a", "fig11b", "fig12a", "fig12b",
		"table5", "table6", "table7", "table8", "hw",
		"ext-earlyrelease", "ext-l1policy", "ext-launchlat", "ext-mshr",
		"ext-rfbanks",
		"ten-interference", "ten-isolation", "ten-packing",
	}
	if ids := IDs(); !slices.Equal(ids, want) {
		t.Errorf("IDs() = %v\nwant    %v", ids, want)
	}
}

// generatedMarker is the line of EXPERIMENTS.md after which the file is
// the named command's stdout, byte for byte (tools/check.sh cmp's it).
const generatedMarker = "<!-- generated: go run ./cmd/gexp -exp all -scale 2 -md -paper (do not edit below) -->"

// TestExperimentsMarkdownCoversIDs: EXPERIMENTS.md, below its generated
// marker, holds exactly one "### <id> — " heading per experiment, in
// IDs() order, so a new experiment cannot be left out of the report.
// Simulates nothing; tools/check.sh compares the cells themselves.
func TestExperimentsMarkdownCoversIDs(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, generated, ok := strings.Cut(string(doc), "\n"+generatedMarker+"\n")
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no line %q", generatedMarker)
	}
	var headings []string
	for _, line := range strings.Split(generated, "\n") {
		if rest, ok := strings.CutPrefix(line, "### "); ok {
			id, _, _ := strings.Cut(rest, " — ")
			headings = append(headings, id)
		}
	}
	if want := IDs(); !slices.Equal(headings, want) {
		t.Errorf("EXPERIMENTS.md tables = %v\nwant      %v\n(regenerate the report below the marker)", headings, want)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := NewSession(1).Experiment("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestBlockSweepsMatchPaperExactly: Tables VI and VIII are pure
// occupancy math and must match the paper cell for cell.
func TestBlockSweepsMatchPaperExactly(t *testing.T) {
	s := NewSession(1)
	for _, id := range []string{"table6", "table8"} {
		tab, err := s.Experiment(id)
		if err != nil {
			t.Fatal(err)
		}
		ref := PaperRefs[id]
		for _, row := range tab.Rows {
			for ci, col := range tab.Columns {
				want, ok := ref[row.Name][col]
				if !ok {
					t.Fatalf("%s: no paper value for %s/%s", id, row.Name, col)
				}
				if got := row.Cells[ci]; got != want {
					t.Errorf("%s %s@%s = %v, paper says %v", id, row.Name, col, got, want)
				}
			}
		}
	}
}

// TestFig1MatchesPaper: baseline resident blocks are also exact.
func TestFig1MatchesPaper(t *testing.T) {
	s := NewSession(1)
	for _, id := range []string{"fig1a", "fig1c"} {
		tab, err := s.Experiment(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			if want := PaperRefs[id][row.Name]["Blocks"]; row.Cells[0] != want {
				t.Errorf("%s %s = %v, paper says %v", id, row.Name, row.Cells[0], want)
			}
		}
	}
	// Wastage is the closed-form (R mod D*Rtb)/R; spot check hotspot:
	// 5120/32768 = 15.625%.
	tab, err := s.Experiment("fig1b")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tab.Cell("hotspot", "Wastage%"); !ok || v < 15.6 || v > 15.7 {
		t.Errorf("hotspot register wastage = %v, want 15.625", v)
	}
}

// TestFig8BlocksMatchPaper: resident blocks under 90% sharing.
func TestFig8BlocksMatchPaper(t *testing.T) {
	s := NewSession(1)
	for id, col := range map[string]string{"fig8a": "Shared-OWF-Unroll-Dyn", "fig8b": "Shared-OWF"} {
		tab, err := s.Experiment(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			if want := PaperRefs[id][row.Name][col]; want != 0 {
				if got, _ := tab.Cell(row.Name, col); got != want {
					t.Errorf("%s %s = %v, paper says %v", id, row.Name, got, want)
				}
			}
		}
	}
}

// TestSharingIPCShape is the headline shape check for Fig. 8(c)/(d):
// who wins and roughly by how much, at experiment scale 1.
func TestSharingIPCShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Shapes are validated at the reference experiment scale.
	s := NewSession(2)

	c, err := s.Experiment("fig8c")
	if err != nil {
		t.Fatal(err)
	}
	get := func(tab *Table, name string) float64 {
		v, ok := tab.Cell(name, "Improvement%")
		if !ok {
			t.Fatalf("missing row %s", name)
		}
		return v
	}
	// Register sharing: the paper's big gainers must clearly gain...
	for _, name := range []string{"hotspot", "MUM", "b+tree", "stencil"} {
		if v := get(c, name); v < 5 {
			t.Errorf("fig8c %s = %+.1f%%, paper reports a 12-24%% gain", name, v)
		}
	}
	// ...the near-neutral apps must stay small either way. mri-q gets a
	// wider ceiling: fixing the slot-vs-position conflation in lrr.Order
	// lowered the Unshared-LRR baseline for this memory-bound app (the
	// old scrambled rotation was accidentally quasi-greedy), so the
	// measured improvement sits above the paper's ~0%.
	for _, name := range []string{"LIB", "mri-q"} {
		hi := 8.0
		if name == "mri-q" {
			hi = 13
		}
		if v := get(c, name); v < -5 || v > hi {
			t.Errorf("fig8c %s = %+.1f%%, paper reports ~0%%", name, v)
		}
	}
	// ...and nothing collapses.
	for _, row := range c.Rows {
		if row.Cells[0] < -8 {
			t.Errorf("fig8c %s = %+.1f%%: sharing should never cost this much", row.Name, row.Cells[0])
		}
	}

	d, err := s.Experiment("fig8d")
	if err != nil {
		t.Fatal(err)
	}
	// Scratchpad sharing: everything gains; lavaMD is the paper's (and
	// our) biggest winner.
	maxName, maxV := "", -1e9
	for _, row := range d.Rows {
		if row.Cells[0] < -5 {
			t.Errorf("fig8d %s = %+.1f%%, paper reports gains across Set-2", row.Name, row.Cells[0])
		}
		if row.Cells[0] > maxV {
			maxName, maxV = row.Name, row.Cells[0]
		}
	}
	if maxName != "lavaMD" && maxName != "SRAD1" {
		t.Errorf("fig8d max gainer = %s (%.1f%%); paper's is lavaMD", maxName, maxV)
	}
	if v := get(d, "lavaMD"); v < 20 {
		t.Errorf("fig8d lavaMD = %+.1f%%, paper reports ~30%%", v)
	}
}

// TestSet3SharingIsInert reproduces the paper's Fig. 12 finding exactly:
// for Set-3, sharing launches nothing extra, so Shared-LRR == Unshared-
// LRR and Shared-OWF == Shared-GTO == Unshared-GTO.
func TestSet3SharingIsInert(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSession(1)
	tab, err := s.Experiment("fig12a")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		lrr, _ := tab.Cell(row.Name, string(UnsharedLRR))
		slrr, _ := tab.Cell(row.Name, string(SharedLRRUnrDyn))
		gto, _ := tab.Cell(row.Name, string(UnsharedGTO))
		sgto, _ := tab.Cell(row.Name, string(SharedGTOUnrDyn))
		owf, _ := tab.Cell(row.Name, string(SharedOWFUnrDyn))
		if lrr != slrr {
			t.Errorf("%s: Shared-LRR %v != Unshared-LRR %v", row.Name, slrr, lrr)
		}
		if gto != sgto {
			t.Errorf("%s: Shared-GTO %v != Unshared-GTO %v", row.Name, sgto, gto)
		}
		if owf != gto {
			t.Errorf("%s: Shared-OWF %v != Unshared-GTO %v (OWF must degenerate to GTO)",
				row.Name, owf, gto)
		}
	}
}

// TestSweepZeroAndTenPercentIdentical: the paper notes all applications
// behave the same at 0% and 10% sharing (no extra blocks yet).
func TestSweepZeroAndTenPercentIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSession(1)
	for _, id := range []string{"table5", "table7"} {
		tab, err := s.Experiment(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row.Cells[0] != row.Cells[1] {
				t.Errorf("%s %s: 0%% (%v) != 10%% (%v)", id, row.Name, row.Cells[0], row.Cells[1])
			}
		}
	}
}

func TestTableFormatAndCell(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Columns: []string{"A", "B"},
		Rows: []RowData{{"r1", []float64{1, 2}}, {"r2", []float64{3, 4}}}, Notes: "n"}
	out := tab.Format()
	for _, want := range []string{"== x: t ==", "r1", "r2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
	if v, ok := tab.Cell("r2", "B"); !ok || v != 4 {
		t.Errorf("Cell = %v,%v", v, ok)
	}
	if _, ok := tab.Cell("r3", "B"); ok {
		t.Error("phantom row")
	}
	if _, ok := tab.Cell("r1", "C"); ok {
		t.Error("phantom column")
	}
}

func TestSessionCaching(t *testing.T) {
	spec, _ := workloads.ByName("CONV2")
	lrr, gto := named(spec, UnsharedLRR, 0.1), named(spec, UnsharedGTO, 0.1)
	declareForTest(t, ipcRow("test-lrr", lrr))
	declareForTest(t, ipcRow("test-lrr-gto", lrr, gto))

	s := NewSession(1)
	for i := 0; i < 2; i++ {
		if _, err := s.Experiment("test-lrr"); err != nil {
			t.Fatal(err)
		}
	}
	if runs := s.Counters().Simulated; runs != 1 {
		t.Errorf("memoization failed: %d runs", runs)
	}
	// A different config name must re-run; the one already simulated
	// must not.
	if _, err := s.Experiment("test-lrr-gto"); err != nil {
		t.Fatal(err)
	}
	if runs := s.Counters().Simulated; runs != 2 {
		t.Errorf("distinct config not run exactly once: %d runs", runs)
	}
}

// TestParallelSessionMatchesSequential is the determinism guarantee of
// the runner rewiring: a session that precomputes the experiment's job
// matrix on an 8-worker pool renders a table byte-identical to a
// strictly sequential session's.
func TestParallelSessionMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	const id = "fig12a"

	seq := NewSession(1)
	seq.Runner.Workers = 1
	seqTab, err := seq.Experiment(id)
	if err != nil {
		t.Fatal(err)
	}

	par := NewSession(1)
	par.Runner.Workers = 8
	if err := par.Precompute(id); err != nil {
		t.Fatal(err)
	}
	precomputed := par.Counters().Simulated
	parTab, err := par.Experiment(id)
	if err != nil {
		t.Fatal(err)
	}

	if seqTab.Format() != parTab.Format() {
		t.Errorf("parallel table differs from sequential:\n--- sequential\n%s--- parallel\n%s",
			seqTab.Format(), parTab.Format())
	}

	// The precompute pass must have covered the whole matrix: assembling
	// the table afterwards simulated nothing new.
	c := par.Counters()
	if precomputed == 0 {
		t.Error("precompute simulated nothing")
	}
	if c.Simulated != precomputed {
		t.Errorf("table assembly simulated %d jobs after precompute", c.Simulated-precomputed)
	}
	if hits := c.Hits(); hits == 0 {
		t.Error("table assembly hit the cache zero times")
	}

	// Without a Precompute, Experiment runs its own cells on the pool:
	// same table, same job set.
	own := NewSession(1)
	own.Runner.Workers = 8
	ownTab, err := own.Experiment(id)
	if err != nil {
		t.Fatal(err)
	}
	if ownTab.Format() != seqTab.Format() {
		t.Errorf("pooled table differs from sequential:\n--- sequential\n%s--- pooled\n%s",
			seqTab.Format(), ownTab.Format())
	}
	if got := own.Counters().Simulated; got != precomputed {
		t.Errorf("pooled Experiment simulated %d jobs, Precompute %d", got, precomputed)
	}
}

// TestSessionDiskCache: a second session pointed at the same cache
// directory reruns an experiment from disk without simulating.
func TestSessionDiskCache(t *testing.T) {
	dir := t.TempDir()
	spec, err := workloads.ByName("gaussian")
	if err != nil {
		t.Fatal(err)
	}
	// The cell keeps the statistics it was reduced from, so the two
	// sessions' results compare whole, not just by IPC.
	var got []*stats.GPU
	e := ipcRow("test-disk", named(spec, UnsharedLRR, 0.1))
	e.rows[0].cells[0].val = func(g []*stats.GPU) float64 {
		got = append(got, g[0])
		return g[0].IPC()
	}
	declareForTest(t, e)

	warm := NewSession(1)
	warm.Runner.CacheDir = dir
	t1, err := warm.Experiment("test-disk")
	if err != nil {
		t.Fatal(err)
	}

	cold := NewSession(1)
	cold.Runner.CacheDir = dir
	t2, err := cold.Experiment("test-disk")
	if err != nil {
		t.Fatal(err)
	}
	c := cold.Counters()
	if c.Simulated != 0 {
		t.Errorf("warm-cache rerun simulated %d times, want 0", c.Simulated)
	}
	if c.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", c.DiskHits)
	}
	b1, _ := got[0].EncodeJSON()
	b2, _ := got[1].EncodeJSON()
	if string(b1) != string(b2) || t1.Format() != t2.Format() {
		t.Error("disk-cached result differs from the original run")
	}
}

// TestPrecomputeValidation: unknown ids fail fast; experiments without
// simulations precompute trivially.
func TestPrecomputeValidation(t *testing.T) {
	s := NewSession(1)
	if err := s.Precompute("fig99"); err == nil {
		t.Error("unknown experiment id accepted")
	}
	if err := s.Precompute("hw", "fig1a", "table6"); err != nil {
		t.Errorf("simulation-free experiments failed to precompute: %v", err)
	}
	if c := s.Counters(); c.Simulated != 0 {
		t.Errorf("occupancy-only experiments simulated %d jobs", c.Simulated)
	}
}

func TestHWExperiment(t *testing.T) {
	tab, err := NewSession(1).Experiment("hw")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := tab.Cell("register", "PerSM"); v != 273 {
		t.Errorf("register bits/SM = %v, want 273", v)
	}
	if v, _ := tab.Cell("scratchpad", "PerSM"); v != 93 {
		t.Errorf("scratchpad bits/SM = %v, want 93", v)
	}
}

func TestMarkdownOutput(t *testing.T) {
	tab := &Table{ID: "table6", Title: "blocks", Columns: []string{"0%", "90%"},
		Rows: []RowData{{"hotspot", []float64{3, 6}}}}
	md := tab.Markdown(PaperRefs["table6"])
	for _, want := range []string{"### table6", "| hotspot |", "*(paper: 3.00)*", "*(paper: 6.00)*"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	// Without a reference, no paper annotations appear.
	if strings.Contains(tab.Markdown(nil), "paper:") {
		t.Error("nil ref must not produce paper annotations")
	}
	// A tenancy row's pipe is escaped, not a column break.
	pair := &Table{ID: "p", Title: "p", Columns: []string{"c"}, Rows: []RowData{{"a|b", []float64{1}}}}
	if md := pair.Markdown(nil); !strings.Contains(md, `| a\|b | 1.00 |`) {
		t.Errorf("pipe in a row name not escaped:\n%s", md)
	}
	// The paper's caveats ride with its values, as in FormatPaper.
	for _, id := range []string{"fig8d", "table5", "table7"} {
		note := PaperNotes[id]
		if note == "" {
			t.Fatalf("%s has no paper note", id)
		}
		tab := &Table{ID: id, Title: id, Columns: []string{"c"}, Rows: []RowData{{"r", []float64{1}}}}
		if md := tab.Markdown(PaperRefs[id]); !strings.Contains(md, note) {
			t.Errorf("%s: paper note missing with a paper ref:\n%s", id, md)
		}
		if md := tab.Markdown(nil); strings.Contains(md, note) {
			t.Errorf("%s: paper note rendered without a paper ref:\n%s", id, md)
		}
	}
}
