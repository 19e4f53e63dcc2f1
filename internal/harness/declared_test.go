package harness

import (
	"fmt"
	"reflect"
	"testing"
)

// TestDeclarationsWellFormed enumerates every experiment without
// simulating anything: each row has one cell per column, each cell a
// reducer, and the whole evaluation is a fixed job set — planning it is
// counting.
func TestDeclarationsWellFormed(t *testing.T) {
	s := NewSession(1)
	requests, distinct := 0, map[string]bool{}
	for _, id := range IDs() {
		e := experiments().byID[id]
		if e.id != id || e.title == "" || len(e.rows) == 0 {
			t.Errorf("%s: incomplete declaration (id %q, title %q, %d rows)", id, e.id, e.title, len(e.rows))
		}
		for _, r := range e.rows {
			if len(r.cells) != len(e.columns) {
				t.Errorf("%s row %s: %d cells for %d columns", id, r.name, len(r.cells), len(e.columns))
			}
			for ci, c := range r.cells {
				if c.val == nil {
					t.Errorf("%s row %s cell %d: no reducer", id, r.name, ci)
				}
			}
		}
		for _, sm := range e.sims() {
			key, err := s.job(sm).Key()
			if err != nil {
				t.Fatalf("%s: %s under %s: %v", id, sm.workload, sm.label, err)
			}
			requests++
			distinct[key] = true
		}
	}
	t.Logf("%d experiments declare %d simulation requests, %d distinct jobs", len(IDs()), requests, len(distinct))
	if len(distinct) != 289 {
		t.Errorf("the evaluation is %d distinct jobs, want 289 (a declaration changed the job set: update this count and the golden together)", len(distinct))
	}
	if c := s.Counters(); c.Done != 0 {
		t.Errorf("enumeration ran %d jobs", c.Done)
	}
}

// paperRefProblems lists every entry of refs and notes that names no
// declared cell, as "id/row/column" paths.
func paperRefProblems(refs map[string]PaperRef, notes map[string]string) []string {
	var bad []string
	for id := range notes {
		if experiments().byID[id] == nil {
			bad = append(bad, fmt.Sprintf("note %s: no such experiment", id))
		}
	}
	for id, ref := range refs {
		e := experiments().byID[id]
		if e == nil {
			bad = append(bad, fmt.Sprintf("%s: no such experiment", id))
			continue
		}
		rows, cols := map[string]bool{}, map[string]bool{}
		for _, r := range e.rows {
			rows[r.name] = true
		}
		for _, c := range e.columns {
			cols[c] = true
		}
		for rowName, cells := range ref {
			if !rows[rowName] {
				bad = append(bad, fmt.Sprintf("%s/%s: no such row", id, rowName))
			}
			for col := range cells {
				if !cols[col] {
					bad = append(bad, fmt.Sprintf("%s/%s/%s: no such column", id, rowName, col))
				}
			}
		}
	}
	return bad
}

// TestPaperRefsNameDeclaredCells: a typo in PaperRefs or PaperNotes
// would silently print no paper value; every id, row and column there
// must name a declared cell. Simulates nothing.
func TestPaperRefsNameDeclaredCells(t *testing.T) {
	for _, p := range paperRefProblems(PaperRefs, PaperNotes) {
		t.Error(p)
	}

	// The check fails by name on a planted typo of each kind.
	for _, planted := range []struct {
		id   string
		ref  PaperRef
		want string
	}{
		{"fig8c", PaperRef{"hotpsot": {"Improvement%": 21.76}}, "fig8c/hotpsot: no such row"},
		{"table6", PaperRef{"hotspot": {"95%": 6}}, "table6/hotspot/95%: no such column"},
		{"fig13", PaperRef{}, "fig13: no such experiment"},
	} {
		got := paperRefProblems(map[string]PaperRef{planted.id: planted.ref}, nil)
		if !reflect.DeepEqual(got, []string{planted.want}) {
			t.Errorf("planted typo in %s reported as %q, want [%q]", planted.id, got, planted.want)
		}
	}
	if got := paperRefProblems(nil, map[string]string{"tabel5": "x"}); len(got) != 1 {
		t.Errorf("planted note typo reported as %q", got)
	}
}
