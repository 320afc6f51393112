package cells

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"fairrank/internal/fairness"
	"fairrank/internal/geom"
)

func TestMarkCellsParallelMatchesSerial(t *testing.T) {
	g1, err := NewGrid(3, 300)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGrid(3, 300)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	var hps []geom.Hyperplane
	for i := 0; i < 12; i++ {
		hps = append(hps, geom.Hyperplane{Coef: geom.Vector{r.Float64() * 3, r.Float64() * 3}})
	}
	g1.AssignHyperplanes(hps)
	g2.AssignHyperplanes(hps)
	// A deterministic oracle: satisfactory iff θ1 + θ2 < 1.1.
	check := func(a geom.Angles) bool { return a[0]+a[1] < 1.1 }
	newCheck := func() CheckFunc { return check }
	s1 := MarkCellsParallel(g1, hps, newCheck, 1, 0, 1)
	s2 := MarkCellsParallel(g2, hps, newCheck, 1, 0, 4)
	if s1.Marked != s2.Marked {
		t.Fatalf("marked counts differ: serial %d vs parallel %d", s1.Marked, s2.Marked)
	}
	for i := range g1.Cells {
		if g1.Cells[i].Marked != g2.Cells[i].Marked {
			t.Fatalf("cell %d marked status differs", i)
		}
	}
}

func TestQueryRefinedNeverWorse(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	ds := colored(t, r, 10, 2)
	oracle, err := fairness.NewTopK(ds, "color", 3, []fairness.GroupBound{{Group: "blue", Min: -1, Max: 1}})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Preprocess(ds, oracle, 800, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !approx.Satisfiable() {
		t.Skip("unsatisfiable")
	}
	for q := 0; q < 50; q++ {
		theta := r.Float64() * math.Pi / 2
		w := geom.Vector{math.Cos(theta), math.Sin(theta)}
		_, dPlain, err1 := approx.Query(w)
		_, dRefined, err2 := approx.QueryRefined(w)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if dRefined > dPlain+1e-12 {
			t.Fatalf("refined answer worse: %v > %v", dRefined, dPlain)
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ds := colored(t, r, 10, 3)
	oracle, err := fairness.NewTopK(ds, "color", 3, []fairness.GroupBound{{Group: "blue", Min: -1, Max: 2}})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Preprocess(ds, oracle, 200, Options{Seed: 2, MaxRegionsPerCell: 64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := approx.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf, ds, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Satisfiable() != approx.Satisfiable() {
		t.Fatal("satisfiability lost in round trip")
	}
	for q := 0; q < 20; q++ {
		w := geom.Vector{r.Float64() + 0.01, r.Float64() + 0.01, r.Float64() + 0.01}
		w1, d1, err1 := approx.Query(w)
		w2, d2, err2 := loaded.Query(w)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error mismatch: %v vs %v", err1, err2)
		}
		if err1 != nil {
			continue
		}
		if math.Abs(d1-d2) > 1e-12 {
			t.Fatalf("distances differ after round trip: %v vs %v", d1, d2)
		}
		for k := range w1 {
			if math.Abs(w1[k]-w2[k]) > 1e-12 {
				t.Fatalf("answers differ after round trip: %v vs %v", w1, w2)
			}
		}
	}
}

func TestLoadIndexValidation(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ds := colored(t, r, 8, 3)
	oracle := fairness.Func(func([]int) bool { return true })
	approx, err := Preprocess(ds, oracle, 100, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := approx.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	// Wrong dimensionality must be rejected.
	ds2 := colored(t, r, 8, 4)
	if _, err := LoadIndex(bytes.NewReader(buf.Bytes()), ds2, oracle); err == nil {
		t.Error("expected dimension mismatch error")
	}
	// Corrupt stream must be rejected.
	if _, err := LoadIndex(bytes.NewReader([]byte("garbage")), ds, oracle); err == nil {
		t.Error("expected decode error")
	}
}

func TestPreprocessParallelWorkersConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ds := colored(t, r, 10, 2)
	oracle, err := fairness.NewTopK(ds, "color", 3, []fairness.GroupBound{{Group: "blue", Min: -1, Max: 1}})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Preprocess(ds, oracle, 400, Options{Seed: 4, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Preprocess(ds, oracle, 400, Options{Seed: 4, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.MarkStats.Marked != parallel.MarkStats.Marked {
		t.Fatalf("marked counts differ: %d vs %d", serial.MarkStats.Marked, parallel.MarkStats.Marked)
	}
	// Every marked cell must agree on status (assigned functions may be
	// different witnesses of the same region, both oracle-verified).
	for i := range serial.Grid.Cells {
		if serial.Grid.Cells[i].Marked != parallel.Grid.Cells[i].Marked {
			t.Fatalf("cell %d marked status differs between worker counts", i)
		}
	}
}
