package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomSystem draws m random half-spaces in d variables over the box
// [0, 1.5]^d, plus a random objective.
func randomSystem(r *rand.Rand, d, m int) (c []float64, cons []Constraint, lo, hi []float64) {
	for i := 0; i < m; i++ {
		a := make([]float64, d)
		for k := range a {
			a[k] = r.NormFloat64()
		}
		cons = append(cons, Constraint{A: a, B: r.NormFloat64() + 0.5})
	}
	c, lo, hi = make([]float64, d), make([]float64, d), make([]float64, d)
	for k := range c {
		c[k], hi[k] = r.NormFloat64(), 1.5
	}
	return c, cons, lo, hi
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// One Workspace reused across problems of changing dimension and size must
// answer bit-identically to the package functions (a fresh workspace each):
// stale buffers from a larger or smaller previous problem never leak into a
// solve.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var ws Workspace
	for it := 0; it < 3000; it++ {
		d, m := 1+r.Intn(5), r.Intn(40)
		c, cons, lo, hi := randomSystem(r, d, m)
		seed := int64(it)
		if it%2 == 0 {
			x1, m1, e1 := ws.InteriorPoint(cons, lo, hi, rand.New(rand.NewSource(seed)))
			x2, m2, e2 := InteriorPoint(cons, lo, hi, rand.New(rand.NewSource(seed)))
			if (e1 == nil) != (e2 == nil) || math.Float64bits(m1) != math.Float64bits(m2) || !sameBits(x1, x2) {
				t.Fatalf("it %d (d=%d m=%d): InteriorPoint warm (%v, %v, %v) vs fresh (%v, %v, %v)", it, d, m, x1, m1, e1, x2, m2, e2)
			}
			continue
		}
		x1, e1 := ws.Maximize(c, cons, lo, hi, rand.New(rand.NewSource(seed)))
		x2, e2 := Maximize(c, cons, lo, hi, rand.New(rand.NewSource(seed)))
		if (e1 == nil) != (e2 == nil) || !sameBits(x1, x2) {
			t.Fatalf("it %d (d=%d m=%d): Maximize warm (%v, %v) vs fresh (%v, %v)", it, d, m, x1, e1, x2, e2)
		}
	}
}

// A warm workspace solves without allocating.
func TestWorkspaceSolveAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	_, cons, lo, hi := randomSystem(r, 3, 60)
	for i := range cons {
		cons[i].B = 1 + r.Float64() // the origin is feasible with slack
	}
	var ws Workspace
	rng := rand.New(rand.NewSource(3))
	if _, _, err := ws.InteriorPoint(cons, lo, hi, rng); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		ws.InteriorPoint(cons, lo, hi, rng)
	})
	if allocs != 0 {
		t.Errorf("warm InteriorPoint allocates %v objects per solve, want 0", allocs)
	}
}
