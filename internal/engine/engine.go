// Package engine defines the one abstraction the paper's three indexes
// share: an offline-built satisfactory-region oracle that answers design
// queries online. The 2D ray-sweep index (§3), the arrangement index (§4)
// and the grid-cell index (§5) each implement Engine through a thin adapter
// in their own package, so every layer above — the public Designer, the
// batch fan-out, persistence, the serving registry and the HTTP API — talks
// to one interface instead of dispatching on an engine mode.
//
// The package deliberately holds no engine code itself: it depends only on
// dataset, fairness, geom and ranking, plus nlp for the solver workspace a
// Scratch carries, and the engine packages depend on it (never the other way
// around), so a new engine is one adapter away from every capability the
// stack offers.
package engine

import (
	"errors"
	"io"
	"math"

	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
)

// ErrUnsatisfiable is the interface-level "no satisfactory ranking function
// exists anywhere" error. Adapters translate their package's sentinel into
// this one so callers test a single error regardless of engine.
var ErrUnsatisfiable = errors.New("engine: no satisfactory ranking function exists")

// ErrNonFinite rejects a query with a NaN or infinite component, or whose
// Euclidean norm overflows: such a vector names no ray, and every answer
// derived from it would carry non-finite weights. All three engines check
// it right after the dimension, on the single and the batch paths alike.
var ErrNonFinite = errors.New("engine: query weights must be finite with a finite norm")

// CheckFinite returns ErrNonFinite when w has a non-finite component or a
// norm that overflows to +Inf.
func CheckFinite(w geom.Vector) error {
	var norm2 float64
	for _, x := range w {
		norm2 += x * x
	}
	if math.IsNaN(norm2) || math.IsInf(norm2, 0) {
		return ErrNonFinite
	}
	return nil
}

// Result is one answer, of Suggest or of one SuggestBatch slot: the
// satisfactory weight vector and its angular distance from the query, or
// the error that query alone would have produced. AlreadyFair is the
// engine's own verdict that the query satisfies the oracle (the answer is
// then the query itself); it is not inferred from a zero distance, because
// an unfair query can lie at angular distance 0 from its answer after
// rounding. Batch Weights are typically carved from a per-chunk arena;
// treat them as owned by the caller once the batch call returns.
type Result struct {
	Weights     geom.Vector
	Distance    float64
	AlreadyFair bool
	Err         error
}

// Engine is the uniform online surface over a preprocessed index.
// Implementations must be safe for concurrent use: the batch layer fans
// chunks out across workers, and the serving registry reads engines through
// an atomic pointer with no additional locking.
type Engine interface {
	// ModeName names the engine ("2d", "exact", "approx").
	ModeName() string

	// Satisfiable reports whether any satisfactory ranking function exists.
	Satisfiable() bool

	// QualityBound returns the engine's additive approximation bound on
	// Suggest distances (Theorem 6 for the grid engine, 0 for exact ones).
	QualityBound() float64

	// Suggest answers one design query: the query itself (distance 0,
	// AlreadyFair) when it is already satisfactory, the closest satisfactory
	// function found otherwise, or ErrUnsatisfiable in Err.
	Suggest(w geom.Vector) Result

	// SuggestBatch answers queries[i] into dst[i] (len(dst) == len(queries)),
	// reusing the per-worker scratch arena across queries so a chunk costs a
	// constant number of allocations instead of a few per query. Each slot
	// holds the same answer (and the same error) Suggest would return for
	// that query alone.
	SuggestBatch(dst []Result, queries []geom.Vector, s *Scratch)

	// SuggestBatchSorted is the resumable variant of SuggestBatch, called by
	// the batch planner with queries it has arranged for angular locality
	// (neighboring queries land in the same sector or grid cell). Kernels
	// with a locality win carry cursor state in the scratch — the 2D engine
	// resumes its interval search from the previous query's position, the
	// grid engine re-enters the last-hit cell instead of re-descending the
	// partition tree — and count reuses via Scratch.AddResumeHits. The sort
	// is advisory, never load-bearing: every cursor use is guarded by an
	// exact validity check and falls back to the stateless lookup, so each
	// slot is byte-identical to SuggestBatch (and to Suggest) for ANY query
	// order. Engines without a locality advantage (the exact engine's cost
	// is per-query NLP solves) delegate to SuggestBatch.
	SuggestBatchSorted(dst []Result, queries []geom.Vector, s *Scratch)

	// Revalidate spot-checks the index's satisfactory witnesses against a
	// (possibly updated) dataset and oracle — the paper's §1 design loop:
	// reuse the scheme while the distribution holds, verify periodically,
	// rebuild on drift. It is a spot check, not a proof.
	Revalidate(ds *dataset.Dataset, oracle fairness.Oracle) (DriftReport, error)

	// Persist serializes the engine's index payload (the universal header is
	// the caller's concern, so payloads stay engine-private).
	Persist(w io.Writer) error
}

// DriftReport summarizes a Revalidate pass over any engine: each engine
// probes its own witnesses (2D interval midpoints, exact region witnesses, a
// sample of marked grid cells) and counts how many still satisfy the oracle
// on the new data. An index that found no satisfactory function probes the
// opposite claim instead (RevalidateUnsatisfiable), so Probes is normally
// never 0 and Healthy does not hold vacuously. The one exception is an
// index none of whose stored witnesses can be attested even on its own
// build data (a fully approximate capped arrangement): it reports zero
// probes, which reads as "no drift evidence obtainable", not "verified
// healthy".
type DriftReport struct {
	// Probes is the number of spot checks performed against the index's
	// stored verdict.
	Probes int
	// StillSatisfactory counts probes where the stored verdict still holds
	// on the supplied dataset: a witness function still satisfying the
	// oracle, or — for an unsatisfiable index — a probed direction that is
	// still unfair.
	StillSatisfactory int
	// Violations lists the engine-internal indexes (interval, region or cell
	// numbers) of the probes that now fail.
	Violations []int
	// OracleCalls performed during the pass.
	OracleCalls int
}

// Healthy reports whether every probed witness survived.
func (r DriftReport) Healthy() bool { return r.StillSatisfactory == r.Probes }
