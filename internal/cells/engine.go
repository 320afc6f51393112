package cells

import (
	"errors"
	"fmt"
	"io"

	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
)

// approxEngine adapts Approx to engine.Engine. refine selects the
// neighbor-considering query variant (Designer Config.RefineQueries).
type approxEngine struct {
	a      *Approx
	refine bool
}

// NewEngine wraps a grid index in the uniform engine interface.
func NewEngine(a *Approx, refine bool) engine.Engine {
	return approxEngine{a: a, refine: refine}
}

func (e approxEngine) ModeName() string      { return "approx" }
func (e approxEngine) Satisfiable() bool     { return e.a.Satisfiable() }
func (e approxEngine) QualityBound() float64 { return e.a.Theorem6Bound() }

func (e approxEngine) Suggest(w geom.Vector) engine.Result {
	if len(w) == e.a.DS.D() {
		if err := engine.CheckFinite(w); err != nil {
			return engine.Result{Err: err}
		}
	}
	out, dist, fair, err := e.a.query(w, e.refine)
	if err != nil {
		if errors.Is(err, ErrUnsatisfiable) {
			err = engine.ErrUnsatisfiable
		}
		return engine.Result{Err: err}
	}
	return engine.Result{Weights: out, Distance: dist, AlreadyFair: fair}
}

// SuggestBatch is the grid-engine arena kernel: the fairness check ranks
// through the worker's shared partial-order buffer, the polar conversion and
// the Locate probes reuse the scratch angle buffers, angular distances go
// through the scratch vectors, and every answer is carved from one per-chunk
// arena — a constant number of allocations per chunk instead of three per
// query. All arithmetic matches the scalar Query/QueryRefined paths step for
// step, so answers are bit-identical.
func (e approxEngine) SuggestBatch(dst []engine.Result, queries []geom.Vector, s *engine.Scratch) {
	a := e.a
	d := a.DS.D()
	depth := fairness.InspectionDepth(a.Oracle)
	arena := make([]float64, d*len(queries))
	for i, q := range queries {
		if len(q) != d {
			dst[i] = engine.Result{Err: fmt.Errorf("cells: query dimension %d, want %d", len(q), d)}
			continue
		}
		if err := engine.CheckFinite(q); err != nil {
			dst[i] = engine.Result{Err: err}
			continue
		}
		fair, err := s.CheckFair(a.DS, a.Oracle, q, depth)
		if err != nil {
			dst[i] = engine.Result{Err: err}
			continue
		}
		out := geom.Vector(arena[d*i : d*(i+1) : d*(i+1)])
		if fair {
			copy(out, q)
			dst[i] = engine.Result{Weights: out, AlreadyFair: true}
			continue
		}
		r, qa, err := geom.ToPolarInto(q, s.Angles(d-1))
		if err != nil {
			dst[i] = engine.Result{Err: err}
			continue
		}
		bestF, best := a.bestStored(qa, e.refine, s.Probe(d-1), s.AngleDistance)
		if bestF == nil {
			dst[i] = engine.Result{Err: engine.ErrUnsatisfiable}
			continue
		}
		bestF.ToCartesianInto(r, out)
		dst[i] = engine.Result{Weights: out, Distance: best}
	}
}

// cellsCursor is the grid engine's resumable state: the identity of the
// index it belongs to plus the cell the previous query located. The identity
// check keeps pooled scratches safe across engine swaps — a cursor from
// another index generation fails the pointer check and the kernel starts
// stateless.
type cellsCursor struct {
	a    *Approx
	last *Cell
}

// SuggestBatchSorted is SuggestBatch with the located cell threaded between
// consecutive queries: when the planner delivers angular neighbors
// back-to-back, the next query usually falls in the same grid cell and the
// partition-tree descent is skipped. Every reuse is guarded by an exact
// containment check against the cell's own bounds (bestStoredResume), so
// answers are bit-identical to SuggestBatch for any query order.
func (e approxEngine) SuggestBatchSorted(dst []engine.Result, queries []geom.Vector, s *engine.Scratch) {
	a := e.a
	d := a.DS.D()
	depth := fairness.InspectionDepth(a.Oracle)
	cur, _ := s.Resume().(*cellsCursor)
	if cur == nil || cur.a != a {
		cur = &cellsCursor{a: a}
	}
	arena := make([]float64, d*len(queries))
	hits := 0
	for i, q := range queries {
		if len(q) != d {
			dst[i] = engine.Result{Err: fmt.Errorf("cells: query dimension %d, want %d", len(q), d)}
			continue
		}
		if err := engine.CheckFinite(q); err != nil {
			dst[i] = engine.Result{Err: err}
			continue
		}
		fair, err := s.CheckFair(a.DS, a.Oracle, q, depth)
		if err != nil {
			dst[i] = engine.Result{Err: err}
			continue
		}
		out := geom.Vector(arena[d*i : d*(i+1) : d*(i+1)])
		if fair {
			copy(out, q)
			dst[i] = engine.Result{Weights: out, AlreadyFair: true}
			continue
		}
		r, qa, err := geom.ToPolarInto(q, s.Angles(d-1))
		if err != nil {
			dst[i] = engine.Result{Err: err}
			continue
		}
		bestF, best, located, resumed := a.bestStoredResume(qa, e.refine, s.Probe(d-1), s.AngleDistance, cur.last)
		cur.last = located
		if resumed {
			hits++
		}
		if bestF == nil {
			dst[i] = engine.Result{Err: engine.ErrUnsatisfiable}
			continue
		}
		bestF.ToCartesianInto(r, out)
		dst[i] = engine.Result{Weights: out, Distance: best}
	}
	if hits > 0 {
		s.AddResumeHits(hits)
	}
	s.SetResume(cur)
}

// revalidateSample caps how many marked cells one Revalidate pass re-probes:
// a grid holds ~N marked cells, and a fixed-size evenly-strided sample keeps
// the drift check O(sample · n) instead of O(N · n) while still touching
// every part of the marked set.
const revalidateSample = 512

// Revalidate re-probes a deterministic sample of the marked cells at their
// stored satisfactory functions against a (possibly updated) dataset: a
// stored function that no longer satisfies the oracle means the data has
// drifted out from under the grid and the index should be rebuilt. Colored
// (inherited) cells are skipped — their functions are copies of marked ones.
// Violations in the report are cell indexes.
func (a *Approx) Revalidate(ds *dataset.Dataset, oracle fairness.Oracle) (engine.DriftReport, error) {
	if ds.D() != a.DS.D() {
		return engine.DriftReport{}, fmt.Errorf("cells: revalidating a d=%d index against a d=%d dataset", a.DS.D(), ds.D())
	}
	var marked []*Cell
	for _, c := range a.Grid.Cells {
		if c.Marked && c.F != nil {
			marked = append(marked, c)
		}
	}
	if len(marked) == 0 {
		// Unsatisfiable at build time: probe that verdict instead, so data
		// drifting into satisfiability triggers a rebuild. A capped or
		// coarse grid can be wrong about unsatisfiability, so the build
		// dataset filters out directions the verdict never covered.
		return engine.RevalidateUnsatisfiable(a.DS, a.Oracle, ds, oracle)
	}
	stride := 1
	if len(marked) > revalidateSample {
		stride = (len(marked) + revalidateSample - 1) / revalidateSample
	}
	depth := fairness.InspectionDepth(oracle)
	counter := &fairness.Counter{O: oracle}
	w := make(geom.Vector, ds.D())
	var report engine.DriftReport
	for i := 0; i < len(marked); i += stride {
		c := marked[i]
		c.F.ToCartesianInto(1, w)
		order, err := orderForOracle(ds, w, depth)
		if err != nil {
			return engine.DriftReport{}, err
		}
		report.Probes++
		if counter.Check(order) {
			report.StillSatisfactory++
		} else {
			report.Violations = append(report.Violations, c.Index)
		}
	}
	report.OracleCalls = counter.Calls()
	return report, nil
}

func (e approxEngine) Revalidate(ds *dataset.Dataset, oracle fairness.Oracle) (engine.DriftReport, error) {
	return e.a.Revalidate(ds, oracle)
}

func (e approxEngine) Persist(w io.Writer) error { return e.a.WriteIndex(w) }

// PersistLegacy implements engine.LegacyPersister (migration tests and
// decode benchmarks only).
func (e approxEngine) PersistLegacy(w io.Writer) error { return e.a.WriteIndexGob(w) }
