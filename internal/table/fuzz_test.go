package table_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/repair"
	"repro/internal/table"
)

// loadCSV runs the CSV input path of cpserve -train, cpquery and cpclean:
// ReadCSV, then FitEncoder and repair.Generate for a table it accepts. It
// returns the table (nil when ReadCSV rejects the input) and Generate's
// result.
func loadCSV(data []byte) (*table.Table, *repair.Repairs, error) {
	tbl, err := table.ReadCSV(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	reps, err := repair.Generate(tbl, nil, table.FitEncoder(tbl, 0), repair.Options{})
	return tbl, reps, err
}

// TestLoadCSVBoundsLabels checks that the CSV input path rejects a
// training label alphabet beyond dataset.MaxNumLabels of the data rows — a
// 3-row CSV with the label 1e12 once made repair.Generate allocate per
// label until the runtime ran out of memory — and accepts the largest label
// the bound allows. The bound is Generate's: ReadCSV alone accepts any
// label, since a points, validation or test file's labels belong to the
// training alphabet, not to its own row count.
func TestLoadCSVBoundsLabels(t *testing.T) {
	for _, csv := range []string{
		"x,label\n1,0\n,1000000000000\n2,1\n",
		"x,label\n1,0\n,3\n2,1\n",
		"x,label\n1,2\n",
	} {
		tbl, _, err := loadCSV([]byte(csv))
		if tbl == nil {
			t.Fatalf("ReadCSV rejected %q", csv)
		}
		if err == nil {
			t.Fatalf("%d labels on %d rows were accepted", tbl.NumLabels, tbl.NumRows())
		}
	}
	tbl, reps, err := loadCSV([]byte("x,label\n1,0\n,2\n2,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumLabels != 3 || reps.Dataset.NumLabels != 3 || reps.Dataset.N() != 3 {
		t.Fatalf("table has %d labels, dataset %d labels and %d rows; want 3, 3 and 3",
			tbl.NumLabels, reps.Dataset.NumLabels, reps.Dataset.N())
	}
	if _, _, err := loadCSV([]byte("x,label\n1,1\n")); err != nil {
		t.Fatalf("label 1 on 1 row (2 labels, the floor): %v", err)
	}
	pts, err := table.ReadCSV(strings.NewReader("x,label\n1,5\n"))
	if err != nil {
		t.Fatalf("ReadCSV rejected a 1-row points file with label 5: %v", err)
	}
	if pts.NumLabels != 6 || pts.Labels[0] != 5 {
		t.Fatalf("points file read with %d labels, label %d; want 6 and 5", pts.NumLabels, pts.Labels[0])
	}
}

// FuzzReadCSV feeds arbitrary bytes through loadCSV. Nothing may panic or
// exhaust memory; when ReadCSV accepts the input, Generate fails only on a
// label alphabet below 2 or beyond dataset.MaxNumLabels of the rows, and
// otherwise the dataset has the table's rows and labels. Seeds in
// testdata/fuzz/FuzzReadCSV, including the 1e12-label crasher.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("x,c,label\n1,a,0\n,b,1\n3,,0\n?,NA,1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			return // every candidate set is capped; longer inputs only cost time
		}
		tbl, reps, err := loadCSV(data)
		switch {
		case tbl == nil:
			return
		case err != nil:
			if n := tbl.NumLabels; n >= 2 && n <= dataset.MaxNumLabels(tbl.NumRows()) {
				t.Fatalf("Generate failed on a table with %d labels and %d rows: %v", n, tbl.NumRows(), err)
			}
			return
		}
		d := reps.Dataset
		if d.N() != tbl.NumRows() || d.NumLabels != tbl.NumLabels {
			t.Fatalf("dataset has %d rows and %d labels, table %d rows and %d labels",
				d.N(), d.NumLabels, tbl.NumRows(), tbl.NumLabels)
		}
	})
}
