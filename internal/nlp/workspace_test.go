package nlp

import (
	"math"
	"math/rand"
	"testing"

	"fairrank/internal/geom"
	"fairrank/internal/lp"
)

// One Workspace reused across regions and dimensions answers bit-identically
// to fresh solves, and its reseeded generator replays rand.New's stream.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var w Workspace
	for it := 0; it < 200; it++ {
		m := 1 + r.Intn(3)
		box := geom.FullAngleBox(m + 1)
		var cons []lp.Constraint
		for i := r.Intn(6); i > 0; i-- {
			a := make([]float64, m)
			for k := range a {
				a[k] = r.NormFloat64()
			}
			cons = append(cons, lp.Constraint{A: a, B: 1 + r.Float64()})
		}
		q := make(geom.Angles, m)
		for k := range q {
			q[k] = r.Float64() * math.Pi / 2
		}
		seed := int64(it)
		p1, d1, e1 := w.ClosestAnglePoint(q, cons, box, Options{}, w.Rand(seed))
		p2, d2, e2 := ClosestAnglePoint(q, cons, box, Options{}, rand.New(rand.NewSource(seed)))
		if (e1 == nil) != (e2 == nil) || math.Float64bits(d1) != math.Float64bits(d2) || len(p1) != len(p2) {
			t.Fatalf("it %d: warm (%v, %v, %v) vs fresh (%v, %v, %v)", it, p1, d1, e1, p2, d2, e2)
		}
		for k := range p1 {
			if math.Float64bits(p1[k]) != math.Float64bits(p2[k]) {
				t.Fatalf("it %d: warm point %v vs fresh %v", it, p1, p2)
			}
		}
	}
}
