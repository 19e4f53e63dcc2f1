package harness

import (
	"testing"
)

// TestTenancyExperiments runs the three multi-tenant experiments at
// scale 1 and checks the tables are fully populated: every mix appears,
// every cell a real simulation result (no zeros), and the interference
// table's slowdown is coherent with its own IPC columns.
func TestTenancyExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-tenant sweep is slow")
	}
	s := NewSession(1)
	s.Runner.Verify = true
	if err := s.Precompute("ten-interference", "ten-isolation", "ten-packing"); err != nil {
		t.Fatal(err)
	}

	inter, err := s.Experiment("ten-interference")
	if err != nil {
		t.Fatal(err)
	}
	if len(inter.Rows) != 2*len(tenPairs) {
		t.Fatalf("interference table has %d rows, want %d", len(inter.Rows), 2*len(tenPairs))
	}
	for _, r := range inter.Rows {
		solo, co, slow := r.Cells[0], r.Cells[1], r.Cells[2]
		if solo <= 0 || co <= 0 {
			t.Errorf("row %s: empty cell (solo %.2f, cosched %.2f)", r.Name, solo, co)
			continue
		}
		if got := solo / co; got < slow*0.999 || got > slow*1.001 {
			t.Errorf("row %s: slowdown %.4f inconsistent with solo/co %.4f", r.Name, slow, got)
		}
		// A tenant sharing the GPU cannot beat its solo run by more than
		// rounding: it has strictly fewer resources.
		if slow < 0.99 {
			t.Errorf("row %s: co-scheduled IPC exceeds solo IPC (slowdown %.3f)", r.Name, slow)
		}
	}

	iso, err := s.Experiment("ten-isolation")
	if err != nil {
		t.Fatal(err)
	}
	if len(iso.Rows) != 2*len(tenPairs) {
		t.Fatalf("isolation table has %d rows, want %d", len(iso.Rows), 2*len(tenPairs))
	}
	for _, r := range iso.Rows {
		for ci, v := range r.Cells {
			if v <= 0 {
				t.Errorf("isolation row %s, column %s: empty cell", r.Name, iso.Columns[ci])
			}
		}
	}

	// Acceptance criterion: the three packing strategies produce a
	// populated comparison table.
	pack, err := s.Experiment("ten-packing")
	if err != nil {
		t.Fatal(err)
	}
	if len(pack.Rows) != len(tenPairs) || len(pack.Columns) != 3 {
		t.Fatalf("packing table is %dx%d, want %dx3", len(pack.Rows), len(pack.Columns), len(tenPairs))
	}
	for _, r := range pack.Rows {
		for ci, v := range r.Cells {
			if v <= 0 {
				t.Errorf("packing row %s, column %s: empty cell", r.Name, pack.Columns[ci])
			}
		}
	}
}
