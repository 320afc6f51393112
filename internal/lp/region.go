package lp

import (
	"math"
	"math/rand"

	"fairrank/internal/matrix"
)

// InteriorPoint finds the "most interior" point of the polytope
// {x : Cons, Lo ≤ x ≤ Hi}: it maximizes the margin s such that every
// constraint is satisfied with slack s·‖A‖ and the box with slack s.
// It returns the point, the achieved margin, and ErrInfeasible when even
// margin −1 cannot be achieved (the region is empty beyond tolerance).
//
// A strictly positive margin certifies a full-dimensional region, which is
// what SATREGIONS needs before sampling a ranking function inside a region;
// a margin near zero means the region is degenerate (a sliver on a
// hyperplane).
func InteriorPoint(cons []Constraint, lo, hi []float64, rng *rand.Rand) (x []float64, margin float64, err error) {
	var ws Workspace
	return ws.InteriorPoint(cons, lo, hi, rng)
}

// InteriorPoint is the package-level InteriorPoint through the workspace:
// the augmented problem is built in the workspace's buffers, and the
// returned point aliases the workspace until its next call.
func (ws *Workspace) InteriorPoint(cons []Constraint, lo, hi []float64, rng *rand.Rand) (x []float64, margin float64, err error) {
	d := len(lo)
	// Variables y = (x, s). Maximize s.
	c := grow(&ws.augC, d+1)
	clear(c)
	c[d] = 1
	n := len(cons) + 2*d
	aug := grow(&ws.aug, n)
	rows := grow(&ws.augA, n*(d+1))
	clear(rows)
	row := func(i int) []float64 { return rows[i*(d+1) : (i+1)*(d+1) : (i+1)*(d+1)] }
	for i, con := range cons {
		a := row(i)
		copy(a, con.A)
		a[d] = con.Norm()
		aug[i] = Constraint{A: a, B: con.B}
	}
	// Box with slack: x_k + s ≤ hi_k and −x_k + s ≤ −lo_k.
	for k := 0; k < d; k++ {
		up := row(len(cons) + 2*k)
		up[k], up[d] = 1, 1
		aug[len(cons)+2*k] = Constraint{A: up, B: hi[k]}
		dn := row(len(cons) + 2*k + 1)
		dn[k], dn[d] = -1, 1
		aug[len(cons)+2*k+1] = Constraint{A: dn, B: -lo[k]}
	}
	// Bounding box for y: x within a slightly inflated box, s within
	// [−1, maxRange] (negative s admits infeasible-by-a-hair diagnostics).
	ylo := grow(&ws.augLo, d+1)
	yhi := grow(&ws.augHi, d+1)
	maxRange := 1.0
	for k := 0; k < d; k++ {
		ylo[k] = lo[k] - 1
		yhi[k] = hi[k] + 1
		maxRange = math.Max(maxRange, hi[k]-lo[k])
	}
	ylo[d], yhi[d] = -1, maxRange
	y, err := ws.Solve(&Problem{C: c, Cons: aug, Lo: ylo, Hi: yhi}, rng)
	if err != nil {
		return nil, 0, err
	}
	margin = y[d]
	if margin < -Tol {
		return nil, margin, ErrInfeasible
	}
	return y[:d], margin, nil
}

// Feasible reports whether the region {Cons, box} has a point with margin
// greater than minMargin, returning a witness when it does.
func Feasible(cons []Constraint, lo, hi []float64, minMargin float64, rng *rand.Rand) ([]float64, bool) {
	x, margin, err := InteriorPoint(cons, lo, hi, rng)
	if err != nil || margin <= minMargin {
		return nil, false
	}
	return x, true
}

// FeasibleOnHyperplane reports whether the hyperplane {x : g·x = g0}
// intersects the region {Cons, box} with interior margin above minMargin
// along the hyperplane, returning a witness point on the hyperplane.
//
// The equality is handled exactly by affine reduction: x = p0 + U·t with p0
// the closest point of the hyperplane to the origin and U an orthonormal
// null-space basis of g, so the search runs in d−1 free variables. This is
// the primitive behind "does hyperplane h pass through region σ" in
// Algorithms 4, 5 and 9.
func FeasibleOnHyperplane(g []float64, g0 float64, cons []Constraint, lo, hi []float64, minMargin float64, rng *rand.Rand) ([]float64, bool) {
	d := len(g)
	var gg float64
	for _, v := range g {
		gg += v * v
	}
	if gg < Tol*Tol {
		return nil, false
	}
	if d == 1 {
		// Zero free variables: the single point x = g0/g.
		x := []float64{g0 / g[0]}
		if x[0] < lo[0]-Tol || x[0] > hi[0]+Tol {
			return nil, false
		}
		for _, con := range cons {
			if dot(con.A, x) > con.B+Tol*(1+con.Norm()) {
				return nil, false
			}
		}
		return x, true
	}
	p0 := make([]float64, d)
	for k := range p0 {
		p0[k] = g[k] * g0 / gg
	}
	basis, err := matrix.NullSpaceOfRow(g)
	if err != nil {
		return nil, false
	}
	m := len(basis) // d−1 free variables
	// Transform each constraint a·x ≤ b into a'·t ≤ b − a·p0 with
	// a'_i = a·U_i; likewise the box bounds of every coordinate.
	tcons := make([]Constraint, 0, len(cons)+2*d)
	blocked := false
	addRow := func(a []float64, b float64) {
		at := make([]float64, m)
		var atNorm float64
		for i, u := range basis {
			at[i] = dot(a, u)
			atNorm += at[i] * at[i]
		}
		bt := b - dot(a, p0)
		var aNorm float64
		for _, v := range a {
			aNorm += v * v
		}
		if atNorm < 1e-18*(1+aNorm) {
			// The constraint is (anti)parallel to the hyperplane: it does
			// not restrict movement along the hyperplane at all. Either the
			// whole hyperplane satisfies it with slack bt, or none of it
			// does — in particular bt ≈ 0 means the hyperplane IS the
			// constraint's boundary (a region bounded by this hyperplane is
			// touched, not crossed).
			if bt <= minMargin+Tol*(1+math.Abs(b)) {
				blocked = true
			}
			return
		}
		tcons = append(tcons, Constraint{A: at, B: bt})
	}
	for _, con := range cons {
		addRow(con.A, con.B)
	}
	for k := 0; k < d; k++ {
		ek := make([]float64, d)
		ek[k] = 1
		addRow(ek, hi[k])
		ek2 := make([]float64, d)
		ek2[k] = -1
		addRow(ek2, -lo[k])
	}
	if blocked {
		return nil, false
	}
	// Bounding box in t-space: the region is inside the original box, whose
	// diameter bounds |t| because the basis is orthonormal.
	var diam float64
	for k := 0; k < d; k++ {
		r := hi[k] - lo[k]
		diam += r * r
	}
	diam = math.Sqrt(diam) + math.Abs(g0)/math.Sqrt(gg) + 1
	tlo := make([]float64, m)
	thi := make([]float64, m)
	for i := range tlo {
		tlo[i], thi[i] = -diam, diam
	}
	t, margin, err := InteriorPoint(tcons, tlo, thi, rng)
	if err != nil || margin <= minMargin {
		return nil, false
	}
	x := make([]float64, d)
	copy(x, p0)
	for i, u := range basis {
		for k := 0; k < d; k++ {
			x[k] += t[i] * u[k]
		}
	}
	return x, true
}

// Maximize is a convenience wrapper: maximize c·x over {Cons, box}.
func Maximize(c []float64, cons []Constraint, lo, hi []float64, rng *rand.Rand) ([]float64, error) {
	var ws Workspace
	return ws.Maximize(c, cons, lo, hi, rng)
}
