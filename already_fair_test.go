package fairrank

import (
	"context"
	"math"
	"testing"

	"fairrank/internal/datagen"
)

// AlreadyFair is the engine's oracle verdict on the query, never an
// inference from a zero distance: the query [1e-9, 1] below is unfair, and
// its exact answer [≈1e-12, 1] lies at angular distance 0 after rounding.
// Reading the verdict off the distance labeled that answer already fair, and
// the memo cache then served the query itself on a hit — a different answer
// on a cache hit than on the miss before it.
func TestAlreadyFairIsTheOracleVerdict(t *testing.T) {
	ds, err := datagen.Biased(60, 2, 0.5, 0.3, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	spec := DesignerSpec{
		Dataset: "biased",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.2, Share: 0.35},
		Config:  ConfigSpec{Mode: "exact", MaxHyperplanes: 60},
	}
	oracle, err := spec.Oracle.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config.Build()
	if err != nil {
		t.Fatal(err)
	}
	des, err := NewDesigner(ds, oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unfair := []float64{1e-9, 1}
	if fair, err := des.IsFair(unfair); err != nil || fair {
		t.Fatalf("IsFair(%v) = %v, %v; the fixture needs an unfair query", unfair, fair, err)
	}
	want, err := des.Suggest(unfair)
	if err != nil {
		t.Fatal(err)
	}
	if want.AlreadyFair {
		t.Errorf("Suggest(%v) = %v at distance %v reports already_fair for an unfair query", unfair, want.Weights, want.Distance)
	}
	batch := des.SuggestBatch([][]float64{unfair, unfair})
	for i, r := range batch {
		if r.Err != nil || !sameAnswerBits(r.Suggestion, want) {
			t.Errorf("SuggestBatch slot %d = %+v, %v; want Suggest's %+v", i, r.Suggestion, r.Err, want)
		}
	}

	srv := NewServer()
	t.Cleanup(srv.Close)
	if err := srv.AddDataset("biased", ds); err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateDesigner("d", spec); err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitReady(context.Background(), "d"); err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cache miss", "cache hit"} {
		got, err := srv.Suggest("d", unfair)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswerBits(got, want) {
			t.Errorf("Server.Suggest on a %s = %+v; want the library's %+v", pass, got, want)
		}
	}

	// A fair query still reports its verdict and comes back verbatim.
	fairQ := []float64{1, 1e-9}
	if fair, err := des.IsFair(fairQ); err != nil || !fair {
		t.Fatalf("IsFair(%v) = %v, %v; the fixture needs a fair query", fairQ, fair, err)
	}
	if s, err := des.Suggest(fairQ); err != nil || !s.AlreadyFair || s.Distance != 0 || s.Weights[0] != fairQ[0] || s.Weights[1] != fairQ[1] {
		t.Errorf("Suggest(%v) = %+v, %v; want the query back, already fair", fairQ, s, err)
	}
}

// sameAnswerBits compares two answers bit for bit.
func sameAnswerBits(a, b *Suggestion) bool {
	if a == nil || b == nil || a.AlreadyFair != b.AlreadyFair ||
		math.Float64bits(a.Distance) != math.Float64bits(b.Distance) || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.Weights {
		if math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	return true
}
