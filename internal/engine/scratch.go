package engine

import (
	"sync"

	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/lp"
	"fairrank/internal/nlp"
	"fairrank/internal/ranking"
)

// Scratch is the per-worker arena a SuggestBatch kernel reuses across the
// queries of a chunk: one ranking buffer (scores, order and the top-k
// selection copy, see CheckFair), one polar-angle buffer, two cartesian
// probe vectors, the exact engine's solver workspace and constraint staging
// buffers (see Solver and Constraints), and the resumable-kernel cursor
// (see Engine.SuggestBatchSorted). Scratches live
// in a process-wide pool (GetScratch, PutScratch) shared by the batch layer,
// the engines' scalar Suggest and their drift checks, so steady-state
// traffic allocates only the answers. A Scratch must not be shared between
// concurrent kernels.
type Scratch struct {
	rank   ranking.Buffers
	angles geom.Angles
	probe  geom.Angles
	va, vb geom.Vector
	solver nlp.Workspace
	cons   []lp.Constraint
	coef   []float64

	// resume is engine-private cursor state a resumable kernel parks between
	// consecutive queries (the 2D engine's interval cursor, the grid engine's
	// last-hit cell). Kernels must validate it before trusting it: a pooled
	// Scratch may carry a cursor from another engine, another index
	// generation, or a differently-sorted chunk, so every use is guarded by
	// an exact containment check and falls back to the stateless lookup.
	resume any
	// resumeHits counts queries answered through a validated cursor instead
	// of a from-scratch descent — the planner's resume_hits observable.
	resumeHits int64
}

// Resume returns the engine-private cursor parked by a previous resumable
// kernel invocation (nil when none). Callers type-assert their own state and
// must treat a foreign or stale value as absent.
func (s *Scratch) Resume() any { return s.resume }

// SetResume parks engine-private cursor state for the next kernel invocation
// on this scratch.
func (s *Scratch) SetResume(v any) { s.resume = v }

// AddResumeHits counts n queries that re-entered the index from a validated
// cursor instead of a from-scratch descent.
func (s *Scratch) AddResumeHits(n int) { s.resumeHits += int64(n) }

// TakeResumeHits returns and clears the resume-hit count accumulated since
// the last call — the batch layer drains it into the planner's counters
// before the scratch goes back to the pool.
func (s *Scratch) TakeResumeHits() int64 {
	n := s.resumeHits
	s.resumeHits = 0
	return n
}

// Retention caps for Reset: a pooled Scratch that served one giant dataset
// must not pin its grown arrays forever. The ranking buffers hold two
// float64s and one int per dataset item, so 1<<16 items bounds retention at
// ~1.5 MiB per pooled scratch; the angle and probe buffers hold d−1 entries
// and are capped far above any realistic dimensionality.
const (
	maxRetainedRankItems = 1 << 16
	maxRetainedAngles    = 1 << 10
	// maxRetainedSolver bounds each solver buffer (constraints or floats):
	// a region's constraint system grows with its hyperplane count, so one
	// pathological region must not pin its arrays in the pool.
	maxRetainedSolver = 1 << 16
)

// Reset prepares a Scratch for the pool: the resumable cursor is dropped (it
// must never leak across batches, engines, or generations) and buffers whose
// capacity outgrew the retention caps are released so one giant batch does
// not pin memory for the life of the process. Contents of retained buffers
// are not cleared — kernels always write before they read.
func (s *Scratch) Reset() {
	s.resume = nil
	s.resumeHits = 0
	s.rank.Trim(maxRetainedRankItems)
	if cap(s.angles) > maxRetainedAngles {
		s.angles = nil
	}
	if cap(s.probe) > maxRetainedAngles {
		s.probe = nil
	}
	if cap(s.va) > maxRetainedAngles {
		s.va, s.vb = nil, nil
	}
	s.solver.Trim(maxRetainedSolver)
	if cap(s.cons) > maxRetainedSolver || cap(s.coef) > maxRetainedSolver {
		s.cons, s.coef = nil, nil
	}
}

// scratchPool recycles Scratches across batches, scalar queries and drift
// checks; PutScratch resets each one before parking it, so no cursor leaks
// between callers and no grown buffer pins memory.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a Scratch from the process-wide pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch resets s (see Reset) and returns it to the pool; the caller
// must not use it afterwards.
func PutScratch(s *Scratch) {
	s.Reset()
	scratchPool.Put(s)
}

// Solver returns the scratch's NLP/LP workspace. The exact engine's kernel
// borrows it for one query at a time: every region solve of that query runs
// through it, and nothing it returns outlives the query.
func (s *Scratch) Solver() *nlp.Workspace { return &s.solver }

// Constraints returns the staging buffers the exact engine's kernel
// materializes each region's constraint system into
// (arrangement.ConstraintsInto overwrites them); it hands the grown buffers
// back through SetConstraints.
func (s *Scratch) Constraints() ([]lp.Constraint, []float64) { return s.cons, s.coef }

// SetConstraints keeps the (possibly grown) staging buffers for the next
// region.
func (s *Scratch) SetConstraints(cons []lp.Constraint, coef []float64) { s.cons, s.coef = cons, coef }

// Checker is an oracle with its ranking needs classified once: its
// inspection depth (fairness.InspectionDepth) and whether its verdict reads
// only the top-depth set (fairness.OrderFree). A kernel builds one per
// chunk or per probe loop, so the probes pay the type switches once.
type Checker struct {
	oracle    fairness.Oracle
	depth     int
	orderFree bool
}

// NewChecker classifies o for CheckFair.
func NewChecker(o fairness.Oracle) Checker {
	return Checker{oracle: o, depth: fairness.InspectionDepth(o), orderFree: fairness.OrderFree(o)}
}

// CheckFair evaluates c's oracle on the ordering w induces over ds — the one
// probe path of every query check, index build and drift check. It ranks
// through the scratch buffers with the cheapest kernel that yields the
// oracle's verdict: the O(n) top-k set (ranking.Buffers.TopSet) for an
// order-free oracle, the O(n + k log k) sorted top-k prefix when only the
// inspection depth is known, and the full sort otherwise. Every kernel
// hands the oracle the same first-depth items the full sort would, so the
// verdict is the full sort's.
func (s *Scratch) CheckFair(ds *dataset.Dataset, c Checker, w geom.Vector) (bool, error) {
	var order []int
	var err error
	switch {
	case c.orderFree:
		order, err = s.rank.TopSet(ds, w, c.depth)
	case c.depth > 0:
		order, err = s.rank.PartialOrder(ds, w, c.depth)
	default:
		order, err = s.rank.Order(ds, w)
	}
	if err != nil {
		return false, err
	}
	return c.oracle.Check(order), nil
}

// Angles returns the reusable m-angle polar buffer.
func (s *Scratch) Angles(m int) geom.Angles {
	if cap(s.angles) < m {
		s.angles = make(geom.Angles, m)
	}
	return s.angles[:m]
}

// Probe returns a second reusable m-angle buffer, for kernels that perturb a
// located angle (the refined grid query) without clobbering the original.
func (s *Scratch) Probe(m int) geom.Angles {
	if cap(s.probe) < m {
		s.probe = make(geom.Angles, m)
	}
	return s.probe[:m]
}

// Vectors returns two reusable d-vectors, for allocation-free angular
// distances (convert both rays into the scratch vectors, then RayDistance).
func (s *Scratch) Vectors(d int) (geom.Vector, geom.Vector) {
	if cap(s.va) < d {
		s.va = make(geom.Vector, d)
		s.vb = make(geom.Vector, d)
	}
	return s.va[:d], s.vb[:d]
}

// AngleDistance is geom.AngleDistance through the scratch vectors: the
// identical arithmetic and errors (both delegate to geom.AngleDistanceInto)
// with zero allocations.
func (s *Scratch) AngleDistance(a, b geom.Angles) (float64, error) {
	va, vb := s.Vectors(a.Dim())
	return geom.AngleDistanceInto(a, b, va, vb)
}
