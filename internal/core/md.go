// Package core assembles the paper's exact multi-dimensional pipeline:
// SATREGIONS (Algorithm 4) builds the arrangement of ordering-exchange
// hyperplanes in angle coordinates and labels every region with the fairness
// oracle's verdict, and MDBASELINE (Algorithm 6) answers a query function by
// solving, per satisfactory region, the non-linear program "closest point of
// the region to the query in angular distance".
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"fairrank/internal/arrangement"
	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/nlp"
)

// ErrUnsatisfiable is returned when no region of the arrangement satisfies
// the fairness oracle.
var ErrUnsatisfiable = errors.New("core: no satisfactory ranking function exists")

// Options tunes SatRegions.
type Options struct {
	// UseTree enables the arrangement tree (Algorithm 5 / AT+).
	UseTree bool
	// MaxHyperplanes caps how many ordering-exchange hyperplanes are
	// inserted (0 = all). The arrangement has Θ(h^{2(d-1)}) regions, so the
	// paper's own experiments cap this (Fig. 18 plots up to 1,200).
	MaxHyperplanes int
	// Seed drives hyperplane shuffling and LP randomization.
	Seed int64
	// PruneTopK, when positive, first discards items that cannot appear in
	// any top-k (dominated by ≥ k others) — the §8 convex-layers
	// optimization. Use the oracle's k.
	PruneTopK int
	// Workers parallelizes the region-labeling pass across the connected
	// components of the region adjacency graph (IncrementalLabeling) or
	// across regions (witness labeling). Labels are identical for any worker
	// count. 0 or 1 = serial; negative = GOMAXPROCS.
	Workers int
	// IncrementalLabeling visits regions in adjacency order (a DFS over the
	// regions' sign vectors, where neighbors differ in exactly one
	// hyperplane) and drives the oracle's incremental state through single
	// swaps instead of re-sorting the dataset per region witness. Exact for
	// d = 2 (angle-space hyperplanes are exact there); for d > 2 the region
	// orderings follow the arrangement's interpolated hyperplane sides, the
	// same approximation the arrangement itself makes. Regions unreachable
	// by single-flip adjacency fall back to a full sort.
	IncrementalLabeling bool
}

// MDIndex is the offline product of SatRegions.
type MDIndex struct {
	Arr    *arrangement.Arrangement
	Sat    []*arrangement.Region
	Oracle fairness.Oracle
	DS     *dataset.Dataset
	// OracleCalls made while labeling regions.
	OracleCalls int
	// HyperplaneCount is |H| before any MaxHyperplanes cap.
	HyperplaneCount int
	// querySeed seeds the per-call randomness of Baseline's NLP solves.
	// Every Baseline call starts from this fixed seed, which makes answers
	// deterministic across calls and across save/load, and makes Baseline
	// safe for concurrent use (no shared rand.Rand state).
	querySeed int64
	// Retained build state for incremental repair (see Repair). In-memory
	// only: loaded indexes report repairable == false (a persisted stream
	// keeps just the queryable arrangement), as do PruneTopK builds (the
	// candidate set is a global property a delta can reshape arbitrarily).
	buildOpts  Options
	repairable bool
}

// SatRegions is Algorithm 4: build ordering-exchange hyperplanes for every
// non-dominating pair, insert them into the arrangement, then label each
// region by ordering the items at the region's witness function and asking
// the oracle.
func SatRegions(ds *dataset.Dataset, oracle fairness.Oracle, opt Options) (*MDIndex, error) {
	if ds.D() < 2 {
		return nil, fmt.Errorf("core: need at least 2 scoring attributes, got %d", ds.D())
	}
	rng := rand.New(rand.NewSource(opt.Seed + 1))

	items := make([]geom.Vector, 0, ds.N())
	var itemIDs []int // hyperplane pair index → dataset item index
	if opt.PruneTopK > 0 {
		// An item dominated by ≥ k others never reaches rank ≤ k under any
		// non-negative linear function, so for oracles that inspect only
		// the top-k prefix, every ordering exchange that can change the
		// verdict is between two top-k candidates. Building hyperplanes
		// over candidates only is therefore exact for such oracles; the
		// oracle itself still ranks the full dataset.
		cand := ds.TopKCandidates(opt.PruneTopK)
		for _, i := range cand {
			items = append(items, ds.Item(i))
			itemIDs = append(itemIDs, i)
		}
	} else {
		for i := 0; i < ds.N(); i++ {
			items = append(items, ds.Item(i))
			itemIDs = append(itemIDs, i)
		}
	}
	hs, err := arrangement.BuildHyperplanes(items)
	if err != nil {
		return nil, err
	}
	total := len(hs)
	arrangement.ShuffleHyperplanes(hs, rng)
	if opt.MaxHyperplanes > 0 && len(hs) > opt.MaxHyperplanes {
		hs = hs[:opt.MaxHyperplanes]
	}
	arr := arrangement.New(geom.FullAngleBox(ds.D()), opt.UseTree, rng)
	for _, h := range hs {
		arr.Insert(h)
	}
	idx := &MDIndex{
		Arr:             arr,
		Oracle:          oracle,
		DS:              ds,
		HyperplaneCount: total,
		querySeed:       opt.Seed + 1,
		buildOpts:       opt,
		repairable:      opt.PruneTopK == 0,
	}
	counter := &fairness.Counter{O: oracle}
	if opt.IncrementalLabeling {
		if err := labelRegionsIncremental(idx, counter, itemIDs, opt.Workers); err != nil {
			return nil, err
		}
	} else if err := labelRegionsByWitness(idx, counter, opt.Workers); err != nil {
		return nil, err
	}
	for _, r := range arr.Regions() {
		if r.Satisfactory {
			idx.Sat = append(idx.Sat, r)
		}
	}
	idx.OracleCalls = counter.Calls()
	return idx, nil
}

// Satisfiable reports whether any satisfactory region was found.
func (idx *MDIndex) Satisfiable() bool { return len(idx.Sat) > 0 }

// Baseline is Algorithm 6 (MDBASELINE): if the query is already
// satisfactory return it unchanged; otherwise solve the closest-point NLP
// for every satisfactory region and return the global minimizer, scaled to
// the query's magnitude. The returned distance is the angular distance
// between query and answer.
func (idx *MDIndex) Baseline(w geom.Vector) (geom.Vector, float64, error) {
	out, dist, _, err := idx.baseline(w)
	return out, dist, err
}

// baseline is Baseline also reporting the oracle's verdict on the query. It
// runs answer through a pooled scratch, so a query allocates only its
// answer.
func (idx *MDIndex) baseline(w geom.Vector) (out geom.Vector, dist float64, fair bool, err error) {
	if len(w) != idx.DS.D() {
		return nil, 0, false, fmt.Errorf("core: query dimension %d, want %d", len(w), idx.DS.D())
	}
	s := engine.GetScratch()
	defer engine.PutScratch(s)
	out = make(geom.Vector, len(w))
	dist, fair, err = idx.answer(w, out, engine.NewChecker(idx.Oracle), s)
	if err != nil {
		return nil, 0, false, err
	}
	return out, dist, fair, nil
}

// answer is the one copy of the per-query step, shared by Baseline and the
// batch kernel: when the query is already satisfactory it is copied into
// out unchanged, otherwise closest writes the global minimizer into out. w
// must have the index's dimension; out must have w's length.
func (idx *MDIndex) answer(w, out geom.Vector, c engine.Checker, s *engine.Scratch) (dist float64, fair bool, err error) {
	fair, err = s.CheckFair(idx.DS, c, w)
	if err != nil {
		return 0, false, err
	}
	if fair {
		copy(out, w)
		return 0, true, nil
	}
	dist, err = idx.closest(w, out, s)
	return dist, false, err
}

// closest is Baseline's unfair-query path: the per-region NLP solves and the
// global minimum, written into out (len(w) entries) at the query's
// magnitude. Every
// solve runs through s's solver workspace and angle buffers, so a warm
// scratch makes the whole query allocation-free, however many satisfactory
// regions there are.
func (idx *MDIndex) closest(w, out geom.Vector, s *engine.Scratch) (float64, error) {
	if !idx.Satisfiable() {
		return 0, ErrUnsatisfiable
	}
	m := len(w) - 1
	r, q, err := geom.ToPolarInto(w, s.Angles(m))
	if err != nil {
		return 0, err
	}
	// Reseeding per call keeps Baseline deterministic (two identical
	// queries — or a query before and after save/load — get identical
	// answers) and free of shared mutable state: the generator lives in the
	// caller's scratch, so concurrent callers never race.
	ws := s.Solver()
	rng := ws.Rand(idx.querySeed)
	best := math.Inf(1)
	bestAng := s.Probe(m)
	found := false
	cons, coef := s.Constraints()
	for _, reg := range idx.Sat {
		cons, coef = idx.Arr.ConstraintsInto(cons, coef, reg)
		p, dist, err := ws.ClosestAnglePoint(q, cons, idx.Arr.Box, nlp.Options{}, rng)
		if err != nil {
			continue // degenerate region; skip
		}
		if dist < best {
			best = dist
			copy(bestAng, p)
			found = true
		}
	}
	s.SetConstraints(cons, coef)
	if !found {
		return 0, ErrUnsatisfiable
	}
	bestAng.ToCartesianInto(r, out)
	return best, nil
}
