package harness

// Paper-reported values, for side-by-side comparison in experiment
// reports and EXPERIMENTS.md. Values come from the paper's text and
// Tables V-VIII; figure-only values are read from the prose of §VI-B.

// PaperRef holds the paper's numbers for one experiment: row -> column
// -> value. Columns use the same names the experiment tables emit.
type PaperRef map[string]map[string]float64

// PaperRefs maps experiment ids to the paper's reported values. Not
// every cell of every figure is quoted in the text; absent cells mean
// "the paper reports this only graphically".
var PaperRefs = map[string]PaperRef{
	"fig1a": {
		"backprop": {"Blocks": 5}, "b+tree": {"Blocks": 2}, "hotspot": {"Blocks": 3},
		"LIB": {"Blocks": 4}, "MUM": {"Blocks": 4}, "mri-q": {"Blocks": 5},
		"sgemm": {"Blocks": 5}, "stencil": {"Blocks": 2},
	},
	"fig1c": {
		"CONV1": {"Blocks": 6}, "CONV2": {"Blocks": 3}, "lavaMD": {"Blocks": 2},
		"NW1": {"Blocks": 7}, "NW2": {"Blocks": 7}, "SRAD1": {"Blocks": 2}, "SRAD2": {"Blocks": 3},
	},
	"fig8a": {
		"backprop": {"Shared-OWF-Unroll-Dyn": 6}, "b+tree": {"Shared-OWF-Unroll-Dyn": 3},
		"hotspot": {"Shared-OWF-Unroll-Dyn": 6}, "LIB": {"Shared-OWF-Unroll-Dyn": 8},
		"MUM": {"Shared-OWF-Unroll-Dyn": 6}, "mri-q": {"Shared-OWF-Unroll-Dyn": 6},
		"sgemm": {"Shared-OWF-Unroll-Dyn": 8}, "stencil": {"Shared-OWF-Unroll-Dyn": 3},
	},
	"fig8b": {
		"CONV1": {"Shared-OWF": 8}, "CONV2": {"Shared-OWF": 4}, "lavaMD": {"Shared-OWF": 4},
		"NW1": {"Shared-OWF": 8}, "NW2": {"Shared-OWF": 8},
		"SRAD1": {"Shared-OWF": 4}, "SRAD2": {"Shared-OWF": 5},
	},
	"fig8c": {
		"backprop": {"Improvement%": 5.82}, "b+tree": {"Improvement%": 11.98},
		"hotspot": {"Improvement%": 21.76}, "LIB": {"Improvement%": 0.84},
		"MUM": {"Improvement%": 24.14}, "mri-q": {"Improvement%": -0.72},
		"sgemm": {"Improvement%": 4.06}, "stencil": {"Improvement%": 23.45},
	},
	// §VI-B's prose for Fig. 8(d)/9(b) is internally inconsistent about
	// CONV1 vs CONV2 (15.85% appears attributed to both); we record the
	// reading CONV1=15.85, CONV2=4.33 and note the ambiguity.
	"fig8d": {
		"CONV1": {"Improvement%": 15.85}, "CONV2": {"Improvement%": 4.33},
		"lavaMD": {"Improvement%": 29.96}, "NW1": {"Improvement%": 5.62},
		"NW2": {"Improvement%": 9.03}, "SRAD1": {"Improvement%": 11.1},
		"SRAD2": {"Improvement%": 25.73},
	},
	"fig9a": {
		"hotspot": {
			"Shared-LRR-NoOpt": 13.65, "Shared-LRR-Unroll": 15.18,
			"Shared-LRR-Unroll-Dyn": 14.58, "Shared-OWF-Unroll-Dyn": 21.76,
		},
		"MUM": {
			"Shared-LRR-NoOpt": -0.15, "Shared-LRR-Unroll": 0.08,
			"Shared-LRR-Unroll-Dyn": 6.45, "Shared-OWF-Unroll-Dyn": 24.14,
		},
		"LIB": {"Shared-LRR-NoOpt": 2, "Shared-LRR-Unroll": 2, "Shared-LRR-Unroll-Dyn": 2},
	},
	"fig9b": {
		"lavaMD": {"Shared-LRR-NoOpt": 28, "Shared-OWF": 30},
		"CONV1":  {"Shared-LRR-NoOpt": 5.68},
		"CONV2":  {"Shared-LRR-NoOpt": 6.21, "Shared-OWF": 15.85},
		"SRAD1":  {"Shared-LRR-NoOpt": 11.1},
		"SRAD2":  {"Shared-LRR-NoOpt": 5.28, "Shared-OWF": 25.73},
		"NW1":    {"Shared-OWF": 5.62},
		"NW2":    {"Shared-OWF": 9.03},
	},
	"table5": {
		"backprop": sweepRow(389.9, 389.9, 389.9, 389.9, 394.1, 392.8),
		"b+tree":   sweepRow(318.5, 318.5, 318.5, 323.3, 326.1, 326.1),
		"hotspot":  sweepRow(489.5, 489.5, 489.5, 475.2, 476.9, 503.59),
		"LIB":      sweepRow(218.0, 218.0, 203.0, 203.0, 216.3, 223.3),
		"MUM":      sweepRow(190.5, 190.5, 190.5, 192.1, 192.4, 194.9),
		"mri-q":    sweepRow(303.7, 303.7, 303.7, 303.7, 305.3, 305.0),
		"sgemm":    sweepRow(490.6, 490.6, 490.6, 490.6, 446.3, 496.7),
		"stencil":  sweepRow(448.2, 448.2, 448.2, 448.2, 448.2, 440.8),
	},
	"table6": {
		"backprop": sweepRow(5, 5, 5, 5, 6, 6),
		"b+tree":   sweepRow(2, 2, 2, 3, 3, 3),
		"hotspot":  sweepRow(3, 3, 3, 4, 4, 6),
		"LIB":      sweepRow(4, 4, 5, 5, 6, 8),
		"MUM":      sweepRow(4, 4, 4, 5, 5, 6),
		"mri-q":    sweepRow(5, 5, 5, 5, 6, 6),
		"sgemm":    sweepRow(5, 5, 5, 5, 6, 8),
		"stencil":  sweepRow(2, 2, 2, 2, 2, 3),
	},
	"table7": {
		"CONV1":  sweepRow(280.33, 280.33, 280.33, 280.33, 288.82, 292.24),
		"CONV2":  sweepRow(119.29, 119.29, 119.29, 119.29, 119.02, 124.6),
		"lavaMD": sweepRow(452.29, 452.29, 452.29, 452.29, 452.29, 578.85),
		"NW1":    sweepRow(39.96, 39.96, 39.96, 38.67, 38.37, 38.37),
		"NW2":    sweepRow(41.93, 41.93, 41.93, 42.14, 40.54, 39.72),
		"SRAD1":  sweepRow(188.13, 188.13, 188.13, 229.38, 208.27, 204.32),
		"SRAD2":  sweepRow(63.48, 63.48, 63.48, 63.52, 63.62, 68.29),
	},
	"table8": {
		"CONV1":  sweepRow(6, 6, 6, 6, 7, 8),
		"CONV2":  sweepRow(3, 3, 3, 3, 3, 4),
		"lavaMD": sweepRow(2, 2, 2, 2, 2, 4),
		"NW1":    sweepRow(7, 7, 7, 8, 8, 8),
		"NW2":    sweepRow(7, 7, 7, 8, 8, 8),
		"SRAD1":  sweepRow(2, 2, 2, 3, 4, 4),
		"SRAD2":  sweepRow(3, 3, 3, 3, 3, 5),
	},
}

func sweepRow(vals ...float64) map[string]float64 {
	cols := sweepColumns()
	row := make(map[string]float64, len(vals))
	for i, v := range vals {
		row[cols[i]] = v
	}
	return row
}

// PaperNotes documents per-experiment caveats for reports.
var PaperNotes = map[string]string{
	"fig8d":  "the paper's prose is ambiguous between CONV1 and CONV2 for the 15.85% figure",
	"table5": "IPC magnitudes depend on the authors' testbed; compare shapes, not absolutes",
	"table7": "IPC magnitudes depend on the authors' testbed; compare shapes, not absolutes",
}
