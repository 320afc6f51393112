// Package nlp solves the non-linear program at the heart of MDBASELINE
// (Algorithm 6 of the paper): find the point of a convex polytope in the
// angle coordinate system that minimizes the angular distance (Eq. 10) to a
// query point. The feasible set is a conjunction of half-spaces plus the
// angle box; the objective is smooth and convex on the box, so we use the
// Frank–Wolfe (conditional gradient) method with the Seidel LP of package lp
// as the linear-minimization oracle, warm-started from the region's most
// interior point.
package nlp

import (
	"errors"
	"math"
	"math/rand"

	"fairrank/internal/geom"
	"fairrank/internal/lp"
)

// Options tunes the Frank–Wolfe solver. The zero value is replaced by
// defaults suitable for the ≤ 6-dimensional angle spaces of this system.
type Options struct {
	MaxIters int     // default 200
	Tol      float64 // duality-gap style stopping tolerance, default 1e-7
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	return o
}

// ErrEmptyRegion is returned when the constraint region has no interior.
var ErrEmptyRegion = errors.New("nlp: empty region")

// ClosestAnglePoint minimizes the angular distance between the ray of query
// and the ray of θ over {θ : cons, box}. It returns the minimizing point and
// its angular distance to the query.
func ClosestAnglePoint(query geom.Angles, cons []lp.Constraint, box geom.Box, opt Options, rng *rand.Rand) (geom.Angles, float64, error) {
	var w Workspace
	return w.ClosestAnglePoint(query, cons, box, opt, rng)
}

// Workspace is the reusable memory of ClosestAnglePoint: the LP workspace
// of its interior-point warm start and linear oracle, a reseedable
// generator, and the scratch vectors the objective, the gradient and the
// line search evaluate into. A solve through a warm Workspace allocates
// nothing and is bit-identical to the package-level ClosestAnglePoint (same
// arithmetic, same rng draws). The zero value is ready to use; a Workspace
// must not be shared between concurrent solves.
type Workspace struct {
	lp  lp.Workspace
	rng *rand.Rand

	x, g, c, dir, step, tp, tm geom.Vector // angle space, m entries
	qCart, cart                geom.Vector // Cartesian space, m+1 entries
}

// Rand returns the workspace's generator reseeded to seed: the same stream
// rand.New(rand.NewSource(seed)) would produce, without allocating one.
func (w *Workspace) Rand(seed int64) *rand.Rand {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(seed))
	} else {
		w.rng.Seed(seed)
	}
	return w.rng
}

// Trim releases LP buffers whose capacity exceeds max elements, so a pooled
// workspace does not pin memory grown by one huge region.
func (w *Workspace) Trim(max int) { w.lp.Trim(max) }

func vec(buf *geom.Vector, n int) geom.Vector {
	if cap(*buf) < n {
		*buf = make(geom.Vector, n)
	}
	return (*buf)[:n]
}

// ClosestAnglePoint is the package-level ClosestAnglePoint through the
// workspace. The returned point aliases the workspace and is valid until
// its next call.
func (w *Workspace) ClosestAnglePoint(query geom.Angles, cons []lp.Constraint, box geom.Box, opt Options, rng *rand.Rand) (geom.Angles, float64, error) {
	opt = opt.withDefaults()
	m := len(query)
	if box.Dim() != m {
		return nil, 0, errors.New("nlp: query and box dimension mismatch")
	}
	// Warm start: the most interior point of the region.
	x0, _, err := w.lp.InteriorPoint(cons, box.Lo, box.Hi, rng)
	if err != nil {
		return nil, 0, ErrEmptyRegion
	}
	x := vec(&w.x, m)
	copy(x, x0)

	qCart := query.ToCartesianInto(1, vec(&w.qCart, m+1))
	cart := vec(&w.cart, m+1)
	obj := func(theta geom.Vector) float64 {
		c, err := geom.CosineSimilarity(geom.Angles(theta).ToCartesianInto(1, cart), qCart)
		if err != nil {
			return math.Pi // zero vector cannot happen for valid angles
		}
		// Minimizing −cos is equivalent to minimizing arccos but smooth at 0.
		return -c
	}
	g, tp, tm := vec(&w.g, m), vec(&w.tp, m), vec(&w.tm, m)
	grad := func(theta geom.Vector) geom.Vector {
		// Numerical gradient: the objective is cheap (O(d)) and d ≤ 6, so
		// central differences are accurate and simpler than the closed form
		// of ∂/∂θ of Eq. 10.
		const h = 1e-6
		for k := 0; k < m; k++ {
			copy(tp, theta)
			copy(tm, theta)
			tp[k] += h
			tm[k] -= h
			g[k] = (obj(tp) - obj(tm)) / (2 * h)
		}
		return g
	}

	c, dir, step := vec(&w.c, m), vec(&w.dir, m), vec(&w.step, m)
	for iter := 0; iter < opt.MaxIters; iter++ {
		g := grad(x)
		// Linear oracle: minimize g·s over the region = maximize (−g)·s.
		for k := range c {
			c[k] = -g[k]
		}
		s, err := w.lp.Maximize(c, cons, box.Lo, box.Hi, rng)
		if err != nil {
			return nil, 0, ErrEmptyRegion
		}
		for k := range dir {
			dir[k] = s[k] - x[k]
		}
		gap := -g.Dot(dir) // Frank–Wolfe duality gap estimate ≥ f(x) − f*
		if gap < opt.Tol {
			break
		}
		// Exact-ish line search on γ ∈ [0,1] by golden section: the
		// objective restricted to a segment is unimodal on the angle box.
		// The step is rounded before the add (the float64 conversion), so
		// no fused multiply-add changes the iterates.
		gamma := goldenSection(func(t float64) float64 {
			for k := range step {
				step[k] = x[k] + float64(dir[k]*t)
			}
			return obj(step)
		}, 0, 1, 40)
		if gamma < 1e-12 {
			break
		}
		for k := range x {
			x[k] = x[k] + float64(dir[k]*gamma)
		}
	}
	dist, err := geom.AngleDistanceInto(query, geom.Angles(x), qCart, cart)
	if err != nil {
		return nil, 0, err
	}
	return geom.Angles(x), dist, nil
}

// goldenSection minimizes f on [a,b] with the given number of iterations and
// returns the minimizing argument.
func goldenSection(f func(float64) float64, a, b float64, iters int) float64 {
	const invPhi = 0.6180339887498949
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for i := 0; i < iters; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	return (a + b) / 2
}
