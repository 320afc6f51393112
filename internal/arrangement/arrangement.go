package arrangement

import (
	"math/rand"

	"fairrank/internal/geom"
	"fairrank/internal/lp"
)

// MinMargin is the interior margin below which a region or a crossing is
// treated as degenerate (a sliver with no full-dimensional interior).
const MinMargin = 1e-7

// SignedHP is a signed reference to a hyperplane of an arrangement: the
// region lies on side S of hyperplane index H.
type SignedHP struct {
	H int
	S geom.Side
}

// Region is a convex region of the arrangement: the intersection of the box
// with the half-spaces in Sides (Eq. 6 of the paper). Witness is a point
// with positive interior margin, used to sample the ordering that holds
// throughout the region.
type Region struct {
	Sides   []SignedHP
	Witness geom.Vector
	// Satisfactory is filled in by the oracle-labeling pass of SATREGIONS.
	Satisfactory bool
	// Version increments whenever Witness is recomputed, letting the
	// early-stopping cell algorithms (§5) re-test only regions whose
	// witness changed since the last oracle probe.
	Version int
}

// constraint converts a signed hyperplane reference to an lp constraint.
// Side Below means h·θ ≤ 1; side Above means h·θ ≥ 1, i.e. −h·θ ≤ −1.
func constraint(h geom.Hyperplane, s geom.Side) lp.Constraint {
	if s == geom.Below {
		return lp.Constraint{A: h.Coef, B: 1}
	}
	neg := make([]float64, len(h.Coef))
	for k, c := range h.Coef {
		neg[k] = -c
	}
	return lp.Constraint{A: neg, B: -1}
}

// Stats counts the work done during construction; Figures 18 and 19 plot
// these against the number of inserted hyperplanes.
type Stats struct {
	LPCalls            int
	IntersectionChecks int
	Splits             int
}

// Arrangement incrementally maintains the convex regions induced by a set of
// hyperplanes within a box of the angle coordinate system.
type Arrangement struct {
	Box         geom.Box
	Hyperplanes []geom.Hyperplane
	Stats       Stats

	regions []*Region
	useTree bool
	root    *treeNode
	rng     *rand.Rand
}

// New returns an arrangement over the given box containing a single region
// (the whole box). When useTree is true, insertions descend the arrangement
// tree of Algorithm 5 instead of scanning all regions.
func New(box geom.Box, useTree bool, rng *rand.Rand) *Arrangement {
	whole := &Region{Witness: box.Center()}
	a := &Arrangement{
		Box:     box,
		useTree: useTree,
		rng:     rng,
	}
	a.regions = []*Region{whole}
	a.root = &treeNode{region: whole}
	return a
}

// Reconstruct rebuilds an arrangement from persisted state: the box, the
// hyperplane list, and the regions with their sides and witnesses. The result
// is query-only — Locate tests region sides directly (no tree) and Insert
// must not be called on it, which is all the loaded read path of an MDIndex
// needs.
func Reconstruct(box geom.Box, hps []geom.Hyperplane, regions []*Region) *Arrangement {
	return &Arrangement{
		Box:         box,
		Hyperplanes: hps,
		regions:     regions,
	}
}

// Regions returns the current regions (shared slice; treat as read-only).
func (a *Arrangement) Regions() []*Region { return a.regions }

// NumRegions returns |R|, the arrangement complexity plotted in Figure 19.
func (a *Arrangement) NumRegions() int { return len(a.regions) }

// Constraints materializes a region's half-space constraints.
func (a *Arrangement) Constraints(r *Region) []lp.Constraint {
	cons, _ := a.ConstraintsInto(make([]lp.Constraint, 0, len(r.Sides)), nil, r)
	return cons
}

// ConstraintsInto is Constraints into caller buffers: the region's
// constraints overwrite cons, the negated coefficient rows of its Above
// sides overwrite coef, and both buffers are returned (grown when they were
// short) for the next call. The constraints alias the arrangement's
// hyperplanes and coef, and are valid until the buffers are reused.
func (a *Arrangement) ConstraintsInto(cons []lp.Constraint, coef []float64, r *Region) ([]lp.Constraint, []float64) {
	need := 0
	for _, sh := range r.Sides {
		if sh.S != geom.Below {
			need += len(a.Hyperplanes[sh.H].Coef)
		}
	}
	if cap(coef) < need {
		coef = make([]float64, 0, need)
	}
	cons, coef = cons[:0], coef[:0]
	for _, sh := range r.Sides {
		h := a.Hyperplanes[sh.H]
		if sh.S == geom.Below {
			cons = append(cons, constraint(h, sh.S))
			continue
		}
		off := len(coef)
		for _, c := range h.Coef {
			coef = append(coef, -c)
		}
		cons = append(cons, lp.Constraint{A: coef[off:len(coef):len(coef)], B: -1})
	}
	return cons, coef
}

// Insert adds a hyperplane to the arrangement, splitting every region whose
// interior it crosses (the loop of lines 9-19 of Algorithm 4, or AT+ when
// the arrangement tree is enabled).
func (a *Arrangement) Insert(h geom.Hyperplane) {
	hi := len(a.Hyperplanes)
	a.Hyperplanes = append(a.Hyperplanes, h)
	if a.useTree {
		a.insertTree(a.root, h, hi, nil)
		return
	}
	// Baseline: scan every region (SATREGIONS without the tree).
	for _, r := range append([]*Region(nil), a.regions...) {
		a.trySplit(r, h, hi, a.Constraints(r))
	}
}

// trySplit checks whether h crosses region r (given r's constraints) and, if
// it does, splits r in place: r keeps side Below and a new region takes side
// Above. It returns the new region, or nil when there is no crossing.
func (a *Arrangement) trySplit(r *Region, h geom.Hyperplane, hi int, cons []lp.Constraint) *Region {
	a.Stats.IntersectionChecks++
	a.Stats.LPCalls++
	if _, ok := lp.FeasibleOnHyperplane(h.Coef, 1, cons, a.Box.Lo, a.Box.Hi, MinMargin, a.rng); !ok {
		return nil
	}
	a.Stats.Splits++
	other := &Region{Sides: append(append([]SignedHP(nil), r.Sides...), SignedHP{H: hi, S: geom.Above})}
	r.Sides = append(r.Sides, SignedHP{H: hi, S: geom.Below})
	// Refresh witnesses on both sides.
	a.Stats.LPCalls += 2
	if w, _, err := lp.InteriorPoint(a.Constraints(r), a.Box.Lo, a.Box.Hi, a.rng); err == nil {
		r.Witness = geom.Vector(w)
		r.Version++
	}
	if w, _, err := lp.InteriorPoint(a.Constraints(other), a.Box.Lo, a.Box.Hi, a.rng); err == nil {
		other.Witness = geom.Vector(w)
		other.Version++
	}
	a.regions = append(a.regions, other)
	return other
}

// treeNode is a vertex of the arrangement tree (Algorithm 5): internal nodes
// carry the hyperplane that split them, with the left subtree on side Below
// and the right subtree on side Above; leaves carry regions.
type treeNode struct {
	h           int // hyperplane index; meaningful for internal nodes
	left, right *treeNode
	region      *Region // non-nil for leaves
}

func (n *treeNode) isLeaf() bool { return n.region != nil }

// insertTree is AT+: descend the tree, pruning subtrees whose accumulated
// half-space constraints the new hyperplane cannot cross.
func (a *Arrangement) insertTree(n *treeNode, h geom.Hyperplane, hi int, cons []lp.Constraint) {
	if n.isLeaf() {
		r := n.region
		if other := a.trySplit(r, h, hi, cons); other != nil {
			// The leaf becomes an internal node for hyperplane hi.
			n.h = hi
			n.region = nil
			n.left = &treeNode{region: r}
			n.right = &treeNode{region: other}
		}
		return
	}
	node := a.Hyperplanes[n.h]
	consL := append(append([]lp.Constraint(nil), cons...), constraint(node, geom.Below))
	a.Stats.LPCalls++
	if _, ok := lp.FeasibleOnHyperplane(h.Coef, 1, consL, a.Box.Lo, a.Box.Hi, MinMargin, a.rng); ok {
		a.insertTree(n.left, h, hi, consL)
	}
	consR := append(append([]lp.Constraint(nil), cons...), constraint(node, geom.Above))
	a.Stats.LPCalls++
	if _, ok := lp.FeasibleOnHyperplane(h.Coef, 1, consR, a.Box.Lo, a.Box.Hi, MinMargin, a.rng); ok {
		a.insertTree(n.right, h, hi, consR)
	}
}

// Locate returns the region containing the angle point theta by descending
// the tree (tree mode) or testing sides directly (baseline mode). Points on
// a boundary resolve to the Below side.
func (a *Arrangement) Locate(theta geom.Vector) *Region {
	if a.useTree {
		n := a.root
		for !n.isLeaf() {
			if a.Hyperplanes[n.h].SideOf(theta) == geom.Above {
				n = n.right
			} else {
				n = n.left
			}
		}
		return n.region
	}
	for _, r := range a.regions {
		ok := true
		for _, sh := range r.Sides {
			side := a.Hyperplanes[sh.H].SideOf(theta)
			if side != sh.S && side != geom.On {
				ok = false
				break
			}
		}
		if ok {
			return r
		}
	}
	return nil
}
