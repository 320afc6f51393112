package core

import (
	"math"
	"testing"

	"fairrank/internal/datagen"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
)

// An unfair query through the exact batch kernel costs a constant number of
// allocations — the chunk's answer arena — however many satisfactory
// regions it solves: every region's constraints, LP recursion and
// Frank–Wolfe iterate live in the worker's scratch.
func TestExactKernelUnfairQueryAllocs(t *testing.T) {
	ds, err := datagen.Biased(60, 2, 0.5, 0.3, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := fairness.MinShare(ds, "group", "protected", 0.2, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	var allocs []float64
	var regions []int
	for _, h := range []int{6, 60} {
		idx, err := SatRegions(ds, oracle, Options{UseTree: true, MaxHyperplanes: h, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(idx)
		s := new(engine.Scratch)
		dst := make([]engine.Result, 1)
		var qs []geom.Vector
		for j := 0; j < 64 && qs == nil; j++ {
			theta := (float64(j) + 0.5) / 64 * math.Pi / 2
			q := geom.Vector{math.Cos(theta), math.Sin(theta)}
			e.SuggestBatch(dst, []geom.Vector{q}, s)
			if dst[0].Err == nil && !dst[0].AlreadyFair {
				qs = []geom.Vector{q}
			}
		}
		if qs == nil {
			t.Fatalf("h=%d: no unfair query with an answer in the fan", h)
		}
		allocs = append(allocs, testing.AllocsPerRun(5, func() { e.SuggestBatch(dst, qs, s) }))
		regions = append(regions, len(idx.Sat))
	}
	if regions[0] == regions[1] {
		t.Fatalf("both fixtures have %d satisfactory regions; the check needs different counts", regions[0])
	}
	if allocs[0] != allocs[1] || allocs[0] > 1 {
		t.Errorf("unfair exact query allocates %v objects with %d satisfactory regions and %v with %d; want the same, at most 1 (the answer arena)",
			allocs[0], regions[0], allocs[1], regions[1])
	}
}
