// Package lp implements exact linear programming for the low-dimensional
// problems that arise when reasoning about arrangements of ordering-exchange
// hyperplanes: feasibility of a convex region (a conjunction of half-spaces,
// Eq. 6 of the paper), most-interior points of regions, and linear
// optimization over regions (the linear oracle of the Frank–Wolfe solver in
// package nlp).
//
// The solver is Seidel's randomized incremental algorithm, which runs in
// expected O(d!·m) time for m constraints in d variables — effectively linear
// in m for the d ≤ 7 ranking dimensions this system targets, and far better
// suited than tableau simplex, whose tableaus would be m×m for these shapes.
// Problems are always bounded by an explicit box, so unboundedness cannot
// arise.
package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Tol is the feasibility tolerance of the solver.
const Tol = 1e-9

// ErrInfeasible is returned when the constraint system has no solution.
var ErrInfeasible = errors.New("lp: infeasible")

// Constraint is a linear inequality A·x ≤ B.
type Constraint struct {
	A []float64
	B float64
}

// Norm returns the Euclidean norm of the constraint's normal vector.
func (c Constraint) Norm() float64 {
	var s float64
	for _, a := range c.A {
		s += a * a
	}
	return math.Sqrt(s)
}

// Problem is a bounded linear program: maximize C·x subject to Cons and the
// box Lo ≤ x ≤ Hi. The box is mandatory; it both guarantees boundedness and
// anchors Seidel's recursion.
type Problem struct {
	C    []float64
	Cons []Constraint
	Lo   []float64
	Hi   []float64
}

// Dim returns the number of variables.
func (p *Problem) Dim() int { return len(p.C) }

func (p *Problem) validate() error {
	d := p.Dim()
	if d == 0 {
		return errors.New("lp: zero-dimensional problem")
	}
	if len(p.Lo) != d || len(p.Hi) != d {
		return fmt.Errorf("lp: box dimension mismatch: c=%d lo=%d hi=%d", d, len(p.Lo), len(p.Hi))
	}
	for k := 0; k < d; k++ {
		if p.Lo[k] > p.Hi[k]+Tol {
			return fmt.Errorf("lp: empty box in dimension %d: [%v, %v]", k, p.Lo[k], p.Hi[k])
		}
	}
	for i, c := range p.Cons {
		if len(c.A) != d {
			return fmt.Errorf("lp: constraint %d dimension %d, want %d", i, len(c.A), d)
		}
	}
	return nil
}

// Solve maximizes the problem. rng drives the constraint shuffle that gives
// Seidel's algorithm its expected-linear running time; pass a seeded source
// for reproducibility. It returns ErrInfeasible when no point satisfies all
// constraints and the box.
func Solve(p *Problem, rng *rand.Rand) ([]float64, error) {
	var ws Workspace
	return ws.Solve(p, rng)
}

// Workspace is the reusable memory of the solver: the shuffled copy of the
// constraints, the reduced problem at every recursion level of Seidel's
// algorithm, and InteriorPoint's augmented problem. A solve through a warm
// Workspace allocates nothing, and performs the same arithmetic and the
// same rng draws as the package-level functions, which are wrappers over a
// fresh Workspace. The zero value is ready to use; a Workspace must not be
// shared between concurrent solves.
type Workspace struct {
	shuf   []Constraint
	levels []level
	zero   []float64 // never written: the all-zero row of reduceProblem

	augC, augLo, augHi []float64
	aug                []Constraint
	augA               []float64
}

// level is one recursion level of Seidel's algorithm: the reduced problem
// it solves (unused at level 0, whose problem is the caller's) and the
// solution vector it returns.
type level struct {
	c, lo, hi []float64
	cons      []Constraint
	a         []float64 // backing of cons[i].A
	x         []float64
}

// Solve is the package-level Solve through the workspace. The returned
// slice aliases the workspace and is valid until its next call.
func (ws *Workspace) Solve(p *Problem, rng *rand.Rand) ([]float64, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	cons := grow(&ws.shuf, len(p.Cons))
	copy(cons, p.Cons)
	rng.Shuffle(len(cons), func(i, j int) { cons[i], cons[j] = cons[j], cons[i] })
	if d := p.Dim(); len(ws.levels) < d {
		ws.levels = append(ws.levels, make([]level, d-len(ws.levels))...)
	}
	return ws.seidel(0, p.C, cons, p.Lo, p.Hi)
}

// Maximize is the package-level Maximize through the workspace; the result
// aliases the workspace.
func (ws *Workspace) Maximize(c []float64, cons []Constraint, lo, hi []float64, rng *rand.Rand) ([]float64, error) {
	return ws.Solve(&Problem{C: c, Cons: cons, Lo: lo, Hi: hi}, rng)
}

// Trim releases every buffer whose capacity exceeds max elements, so a
// pooled workspace that once solved a huge region does not pin its arrays.
func (ws *Workspace) Trim(max int) {
	if cap(ws.shuf) > max {
		ws.shuf = nil
	}
	if cap(ws.aug) > max || cap(ws.augA) > max {
		ws.aug, ws.augA = nil, nil
	}
	for i := range ws.levels {
		if lv := &ws.levels[i]; cap(lv.cons) > max || cap(lv.a) > max {
			lv.cons, lv.a = nil, nil
		}
	}
}

// grow returns (*buf)[:n], reallocating when the capacity falls short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// seidel solves max c·x s.t. cons, lo ≤ x ≤ hi at recursion level depth,
// assuming cons is already in random order. Constraints must not be mutated
// (they may be shared). The solution lives in ws.levels[depth].x.
func (ws *Workspace) seidel(depth int, c []float64, cons []Constraint, lo, hi []float64) ([]float64, error) {
	d := len(c)
	x := grow(&ws.levels[depth].x, d)
	if d == 1 {
		return seidel1D(c[0], cons, lo[0], hi[0], x)
	}
	boxOptimum(x, c, lo, hi)
	for i, con := range cons {
		scale := 1 + con.Norm() + math.Abs(con.B)
		if dot(con.A, x) <= con.B+Tol*scale {
			continue
		}
		// The optimum of cons[:i+1] lies on con's boundary: reduce to d−1
		// variables by eliminating the coordinate with the largest |A_k|.
		k := argmaxAbs(con.A)
		if math.Abs(con.A[k]) < Tol*scale {
			// Degenerate constraint 0·x ≤ B with B < current value: infeasible.
			return nil, ErrInfeasible
		}
		red := ws.reduceProblem(depth+1, c, cons[:i], lo, hi, con, k)
		xr, err := ws.seidel(depth+1, red.c, red.cons, red.lo, red.hi)
		if err != nil {
			return nil, err
		}
		liftSolution(x, xr, con, k)
	}
	return x, nil
}

// seidel1D maximizes c·x over an interval intersected with scalar
// constraints, writing the optimum into x[0].
func seidel1D(c float64, cons []Constraint, lo, hi float64, x []float64) ([]float64, error) {
	for _, con := range cons {
		a, b := con.A[0], con.B
		scale := 1 + math.Abs(a) + math.Abs(b)
		switch {
		case math.Abs(a) < Tol:
			if b < -Tol*scale {
				return nil, ErrInfeasible
			}
		case a > 0:
			hi = math.Min(hi, b/a)
		default:
			lo = math.Max(lo, b/a)
		}
	}
	if lo > hi {
		if lo-hi <= Tol*(1+math.Abs(lo)+math.Abs(hi)) {
			x[0] = (lo + hi) / 2
			return x, nil
		}
		return nil, ErrInfeasible
	}
	if c >= 0 {
		x[0] = hi
	} else {
		x[0] = lo
	}
	return x, nil
}

// reduceProblem substitutes x_k = (B − Σ_{j≠k} A_j x_j)/A_k into the
// objective, the prior constraints, and the box bounds of x_k (which become
// ordinary linear constraints in the reduced space). The reduced problem is
// written into ws.levels[depth] and returned.
func (ws *Workspace) reduceProblem(depth int, c []float64, prior []Constraint, lo, hi []float64, con Constraint, k int) *level {
	d := len(c)
	ak := con.A[k]
	r := &ws.levels[depth]
	r.c, r.lo, r.hi = r.c[:0], r.lo[:0], r.hi[:0]
	for j := 0; j < d; j++ {
		if j == k {
			continue
		}
		r.c = append(r.c, c[j]-c[k]*con.A[j]/ak)
		r.lo = append(r.lo, lo[j])
		r.hi = append(r.hi, hi[j])
	}
	n := len(prior) + 2
	r.cons = grow(&r.cons, n)
	cons := r.cons
	a := grow(&r.a, n*(d-1))
	transform := func(i int, g []float64, gk, gb float64) {
		row := a[i*(d-1) : i*(d-1) : (i+1)*(d-1)]
		for j := 0; j < d; j++ {
			if j == k {
				continue
			}
			row = append(row, g[j]-gk*con.A[j]/ak)
		}
		cons[i] = Constraint{A: row, B: gb - gk*con.B/ak}
	}
	for i, g := range prior {
		transform(i, g.A, g.A[k], g.B)
	}
	// Box bounds on the eliminated variable: x_k ≤ hi_k and −x_k ≤ −lo_k.
	ek := grow(&ws.zero, d)
	transform(len(prior), ek, 1, hi[k])
	transform(len(prior)+1, ek, -1, -lo[k])
	return r
}

// liftSolution reinserts the eliminated coordinate of the reduced solution
// xr into x.
func liftSolution(x, xr []float64, con Constraint, k int) {
	d := len(xr) + 1
	j := 0
	for i := 0; i < d; i++ {
		if i == k {
			continue
		}
		x[i] = xr[j]
		j++
	}
	s := con.B
	for i := 0; i < d; i++ {
		if i != k {
			s -= con.A[i] * x[i]
		}
	}
	x[k] = s / con.A[k]
}

// boxOptimum writes the box corner maximizing c·x into x.
func boxOptimum(x, c, lo, hi []float64) {
	for k := range c {
		if c[k] >= 0 {
			x[k] = hi[k]
		} else {
			x[k] = lo[k]
		}
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func argmaxAbs(a []float64) int {
	best, bi := math.Abs(a[0]), 0
	for i := 1; i < len(a); i++ {
		if v := math.Abs(a[i]); v > best {
			best, bi = v, i
		}
	}
	return bi
}
