package twod

import (
	"errors"
	"io"
	"math"

	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
)

// indexEngine adapts Index to engine.Engine. The index itself stays the
// package's API; the adapter only translates errors and supplies the batch
// kernel and metadata the interface asks for.
type indexEngine struct{ idx *Index }

// NewEngine wraps a ray-sweep index in the uniform engine interface.
func NewEngine(idx *Index) engine.Engine { return indexEngine{idx: idx} }

func (e indexEngine) ModeName() string      { return "2d" }
func (e indexEngine) Satisfiable() bool     { return e.idx.Satisfiable() }
func (e indexEngine) QualityBound() float64 { return 0 }

// Suggest answers through Index.Query. In two dimensions the index's verdict
// is interval containment, and answerNear reports distance 0 exactly for a
// contained angle (the query is then returned verbatim), so AlreadyFair is
// the zero distance here — unlike the engines that solve for a nearest point.
func (e indexEngine) Suggest(w geom.Vector) engine.Result {
	if len(w) == 2 {
		if err := engine.CheckFinite(w); err != nil {
			return engine.Result{Err: err}
		}
	}
	out, dist, err := e.idx.Query(w)
	if err != nil {
		if errors.Is(err, ErrUnsatisfiable) {
			err = engine.ErrUnsatisfiable
		}
		return engine.Result{Err: err}
	}
	return engine.Result{Weights: out, Distance: dist, AlreadyFair: dist == 0}
}

// SuggestBatch is the 2D arena kernel: per query it does the polar
// conversion and the interval binary search with no allocations, and the
// answer vectors of the whole chunk come from one arena allocation. Answers
// are bit-identical to Suggest's (ToPolar2D and QueryAngle are the same
// arithmetic as the scalar path).
func (e indexEngine) SuggestBatch(dst []engine.Result, queries []geom.Vector, _ *engine.Scratch) {
	arena := make([]float64, 2*len(queries))
	for i, q := range queries {
		if len(q) != 2 {
			_, _, err := e.idx.Query(q) // uniform dimension error
			dst[i] = engine.Result{Err: err}
			continue
		}
		if err := engine.CheckFinite(q); err != nil {
			dst[i] = engine.Result{Err: err}
			continue
		}
		r, theta, err := geom.ToPolar2D(q)
		if err != nil {
			dst[i] = engine.Result{Err: err}
			continue
		}
		bestTheta, dist, err := e.idx.QueryAngle(theta)
		if err != nil {
			dst[i] = engine.Result{Err: engine.ErrUnsatisfiable}
			continue
		}
		out := arena[2*i : 2*i+2 : 2*i+2]
		if dist == 0 {
			out[0], out[1] = q[0], q[1]
		} else {
			out[0], out[1] = r*math.Cos(bestTheta), r*math.Sin(bestTheta)
		}
		dst[i] = engine.Result{Weights: out, Distance: dist, AlreadyFair: dist == 0}
	}
}

// twodCursor is the 2D engine's resumable state: the identity of the index
// it was taken from plus the previous query's interval lower bound. The
// identity check is what makes a pooled scratch safe — a cursor parked by
// another index generation (or another engine entirely) fails the type or
// pointer check and the kernel falls back to the binary search.
type twodCursor struct {
	idx *Index
	lo  int
}

// SuggestBatchSorted is SuggestBatch with the interval cursor threaded
// between consecutive queries: when the planner delivers queries in
// ascending angular order, each lookup resumes from the previous lower
// bound instead of re-running the binary search. Every resume is guarded by
// queryAngleFrom's exact validity check, so answers are bit-identical to
// SuggestBatch for any query order.
func (e indexEngine) SuggestBatchSorted(dst []engine.Result, queries []geom.Vector, s *engine.Scratch) {
	if s == nil {
		e.SuggestBatch(dst, queries, s)
		return
	}
	cur, _ := s.Resume().(*twodCursor)
	if cur == nil || cur.idx != e.idx {
		cur = &twodCursor{idx: e.idx}
	}
	arena := make([]float64, 2*len(queries))
	hits := 0
	for i, q := range queries {
		if len(q) != 2 {
			_, _, err := e.idx.Query(q) // uniform dimension error
			dst[i] = engine.Result{Err: err}
			continue
		}
		if err := engine.CheckFinite(q); err != nil {
			dst[i] = engine.Result{Err: err}
			continue
		}
		r, theta, err := geom.ToPolar2D(q)
		if err != nil {
			dst[i] = engine.Result{Err: err}
			continue
		}
		bestTheta, dist, next, resumed, err := e.idx.queryAngleFrom(theta, cur.lo)
		if err != nil {
			dst[i] = engine.Result{Err: engine.ErrUnsatisfiable}
			continue
		}
		cur.lo = next
		if resumed {
			hits++
		}
		out := arena[2*i : 2*i+2 : 2*i+2]
		if dist == 0 {
			out[0], out[1] = q[0], q[1]
		} else {
			out[0], out[1] = r*math.Cos(bestTheta), r*math.Sin(bestTheta)
		}
		dst[i] = engine.Result{Weights: out, Distance: dist, AlreadyFair: dist == 0}
	}
	if hits > 0 {
		s.AddResumeHits(hits)
	}
	s.SetResume(cur)
}

func (e indexEngine) Revalidate(ds *dataset.Dataset, oracle fairness.Oracle) (engine.DriftReport, error) {
	return e.idx.Revalidate(ds, oracle)
}

func (e indexEngine) Persist(w io.Writer) error { return e.idx.WriteIndex(w) }

// PersistLegacy implements engine.LegacyPersister (migration tests and
// decode benchmarks only).
func (e indexEngine) PersistLegacy(w io.Writer) error { return e.idx.WriteIndexGob(w) }
