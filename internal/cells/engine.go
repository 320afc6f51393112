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
		return engine.Result{Err: engineErr(err)}
	}
	return engine.Result{Weights: out, Distance: dist, AlreadyFair: fair}
}

// SuggestBatch is the grid-engine arena kernel: every query runs answer
// through the worker's scratch — the fairness check ranks through its
// buffers, the polar conversion and the Locate probes reuse its angle
// buffers, angular distances go through its vectors — and every answer is
// carved from one per-chunk arena, a constant number of allocations per
// chunk. The scalar Query/QueryRefined paths run the same answer, so
// answers are bit-identical.
func (e approxEngine) SuggestBatch(dst []engine.Result, queries []geom.Vector, s *engine.Scratch) {
	e.suggestBatch(dst, queries, s, nil)
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
// containment check against the cell's own bounds (bestStored), so answers
// are bit-identical to SuggestBatch for any query order.
func (e approxEngine) SuggestBatchSorted(dst []engine.Result, queries []geom.Vector, s *engine.Scratch) {
	cur, _ := s.Resume().(*cellsCursor)
	if cur == nil || cur.a != e.a {
		cur = &cellsCursor{a: e.a}
	}
	e.suggestBatch(dst, queries, s, cur)
	s.SetResume(cur)
}

// suggestBatch is both kernels: with a nil cursor every query locates its
// cell from scratch, otherwise cur carries the located cell from query to
// query and the resumed ones count as resume hits.
func (e approxEngine) suggestBatch(dst []engine.Result, queries []geom.Vector, s *engine.Scratch, cur *cellsCursor) {
	a := e.a
	d := a.DS.D()
	check := engine.NewChecker(a.Oracle)
	arena := make([]float64, d*len(queries))
	var last *Cell
	if cur != nil {
		last = cur.last
	}
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
		out := geom.Vector(arena[d*i : d*(i+1) : d*(i+1)])
		dist, fair, next, resumed, err := a.answer(q, out, e.refine, check, s, last)
		if cur != nil {
			last = next
			if resumed {
				hits++
			}
		}
		if err != nil {
			dst[i] = engine.Result{Err: engineErr(err)}
			continue
		}
		dst[i] = engine.Result{Weights: out, Distance: dist, AlreadyFair: fair}
	}
	if cur != nil {
		cur.last = last
		if hits > 0 {
			s.AddResumeHits(hits)
		}
	}
}

// engineErr maps the package sentinel onto the engine-level one.
func engineErr(err error) error {
	if errors.Is(err, ErrUnsatisfiable) {
		return engine.ErrUnsatisfiable
	}
	return err
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
	counter := &fairness.Counter{O: oracle}
	check := engine.NewChecker(counter)
	s := engine.GetScratch()
	defer engine.PutScratch(s)
	w := make(geom.Vector, ds.D())
	var report engine.DriftReport
	for i := 0; i < len(marked); i += stride {
		c := marked[i]
		c.F.ToCartesianInto(1, w)
		fair, err := s.CheckFair(ds, check, w)
		if err != nil {
			return engine.DriftReport{}, err
		}
		report.Probes++
		if fair {
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
