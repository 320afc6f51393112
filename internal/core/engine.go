package core

import (
	"errors"
	"fmt"
	"io"

	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
)

// revalidateSample caps how many attestable witnesses one Revalidate pass
// re-probes (see the cells engine's identically-named cap).
const revalidateSample = 512

// mdEngine adapts MDIndex to engine.Engine.
type mdEngine struct{ idx *MDIndex }

// NewEngine wraps an arrangement index in the uniform engine interface.
func NewEngine(idx *MDIndex) engine.Engine { return mdEngine{idx: idx} }

func (e mdEngine) ModeName() string      { return "exact" }
func (e mdEngine) Satisfiable() bool     { return e.idx.Satisfiable() }
func (e mdEngine) QualityBound() float64 { return 0 }

func (e mdEngine) Suggest(w geom.Vector) engine.Result {
	if len(w) == e.idx.DS.D() {
		if err := engine.CheckFinite(w); err != nil {
			return engine.Result{Err: err}
		}
	}
	out, dist, fair, err := e.idx.baseline(w)
	if err != nil {
		return engine.Result{Err: engineErr(err)}
	}
	return engine.Result{Weights: out, Distance: dist, AlreadyFair: fair}
}

// engineErr maps the package sentinel onto the engine-level one.
func engineErr(err error) error {
	if errors.Is(err, ErrUnsatisfiable) {
		return engine.ErrUnsatisfiable
	}
	return err
}

// SuggestBatch is the exact-engine arena kernel: every query runs answer
// through the worker's scratch. The fairness check — the whole cost of the
// common already-fair query — ranks through the scratch buffers (see
// engine.Scratch.CheckFair); unfair queries run the per-region NLP solves
// through the scratch's solver workspace. Every answer is written into one
// per-chunk arena, so a chunk costs a constant number of allocations
// whatever its verdicts and however many regions are solved.
//
// Workspace ownership: the kernel's caller owns s for the whole chunk and
// must not share it with another kernel; closest borrows s's solver
// workspace and angle buffers for one query at a time, and no answer
// aliases them — each is copied out into the arena before the next query.
func (e mdEngine) SuggestBatch(dst []engine.Result, queries []geom.Vector, s *engine.Scratch) {
	idx := e.idx
	d := idx.DS.D()
	check := engine.NewChecker(idx.Oracle)
	arena := make([]float64, d*len(queries))
	for i, q := range queries {
		if len(q) != d {
			_, _, err := idx.Baseline(q) // uniform dimension error
			dst[i] = engine.Result{Err: err}
			continue
		}
		if err := engine.CheckFinite(q); err != nil {
			dst[i] = engine.Result{Err: err}
			continue
		}
		out := geom.Vector(arena[d*i : d*(i+1) : d*(i+1)])
		dist, fair, err := idx.answer(q, out, check, s)
		if err != nil {
			dst[i] = engine.Result{Err: engineErr(err)}
			continue
		}
		dst[i] = engine.Result{Weights: out, Distance: dist, AlreadyFair: fair}
	}
}

// SuggestBatchSorted delegates to the stateless kernel: the exact engine's
// cost is dominated by per-query NLP solves over the satisfactory regions,
// which no cursor can shortcut, so there is no locality win to chase. (The
// planner's dedup still applies upstream — collapsing a duplicate saves a
// whole solve here.)
func (e mdEngine) SuggestBatchSorted(dst []engine.Result, queries []geom.Vector, s *engine.Scratch) {
	e.SuggestBatch(dst, queries, s)
}

// Revalidate spot-checks satisfactory regions' stored witness functions
// against a (possibly updated) dataset: the region geometry is fixed by the
// old data's ordering exchanges, so a witness that no longer satisfies the
// oracle means the arrangement's labels have drifted and the index should be
// rebuilt. Violations in the report are indexes into the satisfactory-region
// list.
//
// Probes are drawn as an evenly-strided sample of at most revalidateSample
// regions (mirroring the grid engine: each probe ranks the whole dataset,
// so the cap keeps one drift check bounded regardless of |Sat|).
// A sampled witness is probed only when its verdict holds under a fresh
// ranking of the BUILD dataset: capped or d > 2 arrangements label regions
// approximately, and probing a witness the index could never attest would
// report drift — and trigger a rebuild — forever, even on unchanged data.
// If no sampled witness is attestable (a fully approximate index), witness
// probes cannot distinguish unchanged from drifted data; the report then
// carries zero probes (vacuously healthy), which is honest — "no drift
// evidence obtainable" — and strictly better than failing every probe and
// rebuilding an identical index on every check, forever.
func (idx *MDIndex) Revalidate(ds *dataset.Dataset, oracle fairness.Oracle) (engine.DriftReport, error) {
	if ds.D() != idx.DS.D() {
		return engine.DriftReport{}, fmt.Errorf("core: revalidating a d=%d index against a d=%d dataset", idx.DS.D(), ds.D())
	}
	if len(idx.Sat) == 0 {
		// Unsatisfiable at build time: probe that verdict instead, so data
		// drifting into satisfiability triggers a rebuild. A capped
		// arrangement can be wrong about unsatisfiability, so the build
		// dataset filters out directions the verdict never covered.
		return engine.RevalidateUnsatisfiable(idx.DS, idx.Oracle, ds, oracle)
	}
	stride := 1
	if len(idx.Sat) > revalidateSample {
		stride = (len(idx.Sat) + revalidateSample - 1) / revalidateSample
	}
	var report engine.DriftReport
	buildCounter := &fairness.Counter{O: idx.Oracle}
	counter := &fairness.Counter{O: oracle}
	buildCheck := engine.NewChecker(buildCounter)
	check := engine.NewChecker(counter)
	s := engine.GetScratch()
	defer engine.PutScratch(s)
	w := make(geom.Vector, ds.D())
	for i := 0; i < len(idx.Sat); i += stride {
		geom.Angles(idx.Sat[i].Witness).ToCartesianInto(1, w)
		attested, err := s.CheckFair(idx.DS, buildCheck, w)
		if err != nil {
			return engine.DriftReport{}, err
		}
		if !attested {
			continue // unattestable: the label was approximate here
		}
		fair, err := s.CheckFair(ds, check, w)
		if err != nil {
			return engine.DriftReport{}, err
		}
		report.Probes++
		if fair {
			report.StillSatisfactory++
		} else {
			report.Violations = append(report.Violations, i)
		}
	}
	report.OracleCalls = counter.Calls() + buildCounter.Calls()
	return report, nil
}

func (e mdEngine) Revalidate(ds *dataset.Dataset, oracle fairness.Oracle) (engine.DriftReport, error) {
	return e.idx.Revalidate(ds, oracle)
}

func (e mdEngine) Persist(w io.Writer) error { return e.idx.WriteIndex(w) }

// PersistLegacy implements engine.LegacyPersister (migration tests and
// decode benchmarks only).
func (e mdEngine) PersistLegacy(w io.Writer) error { return e.idx.WriteIndexGob(w) }
