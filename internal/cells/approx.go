package cells

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"fairrank/internal/arrangement"
	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
)

// ErrUnsatisfiable is returned by Query when no cell anywhere holds a
// satisfactory function.
var ErrUnsatisfiable = errors.New("cells: no satisfactory ranking function exists")

// Options tunes Preprocess.
type Options struct {
	// Seed drives LP randomization and hyperplane shuffling.
	Seed int64
	// PruneTopK, when positive, builds hyperplanes only over items that can
	// reach the top-k (see core.Options.PruneTopK); exact for top-k oracles.
	PruneTopK int
	// MaxHyperplanes caps the number of ordering-exchange hyperplanes
	// (0 = all), mirroring the paper's capped-arrangement experiments.
	MaxHyperplanes int
	// MaxRegionsPerCell caps how many arrangement regions MARKCELL may
	// probe inside one cell before giving up on it (0 = unlimited, the
	// paper's behaviour). Unsatisfiable cells otherwise force a complete
	// per-cell arrangement — the dominant preprocessing cost the paper
	// reports — and a cap trades a slightly weaker Theorem 6 guarantee
	// (a capped cell falls back to CELLCOLORING) for bounded work.
	MaxRegionsPerCell int
	// Workers is the number of goroutines for the MARKCELL phase
	// (cells are independent). 0 = serial; negative = GOMAXPROCS.
	Workers int
}

// PhaseTimes records the duration of each preprocessing phase — the series
// plotted in Figures 22 and 23.
type PhaseTimes struct {
	BuildHyperplanes time.Duration // HYPERPOLAR over all pairs
	Partition        time.Duration // ANGLEPARTITIONING
	Assign           time.Duration // CELLPLANE×
	Mark             time.Duration // MARKCELL / ATC+
	Color            time.Duration // CELLCOLORING
}

// Total returns the end-to-end preprocessing time.
func (p PhaseTimes) Total() time.Duration {
	return p.BuildHyperplanes + p.Partition + p.Assign + p.Mark + p.Color
}

// Approx is the §5 index: a partitioned angle space in which every cell
// carries a satisfactory ranking function (when one exists at all), plus
// the per-phase statistics the paper's preprocessing figures report.
type Approx struct {
	Grid        *Grid
	DS          *dataset.Dataset
	Oracle      fairness.Oracle
	Hyperplanes []geom.Hyperplane
	Times       PhaseTimes
	AssignStats AssignStats
	MarkStats   MarkStats
	ColorStats  ColorStats
	OracleCalls int
	// Retained build state for incremental repair (see Repair). In-memory
	// only: loaded indexes report repairable == false (a persisted stream
	// keeps just the queryable grid), as do PruneTopK builds (the candidate
	// set is a global property a delta can reshape arbitrarily).
	buildN     int
	buildOpts  Options
	repairable bool
}

// Preprocess runs the full offline pipeline of §5 over the dataset: build
// ordering-exchange hyperplanes, partition the angle space into ~n cells,
// assign hyperplanes to cells, mark cells intersecting satisfactory
// regions, and color the rest.
func Preprocess(ds *dataset.Dataset, oracle fairness.Oracle, n int, opt Options) (*Approx, error) {
	return preprocessWith(ds, oracle, n, opt, func(items []geom.Vector, rng *rand.Rand) ([]geom.Hyperplane, error) {
		hps, err := arrangement.BuildHyperplanes(items)
		if err != nil {
			return nil, err
		}
		arrangement.ShuffleHyperplanes(hps, rng)
		if opt.MaxHyperplanes > 0 && len(hps) > opt.MaxHyperplanes {
			hps = hps[:opt.MaxHyperplanes]
		}
		return hps, nil
	})
}

// preprocessWith is Preprocess with the hyperplane-construction stage
// injected: buildHps receives the item vectors and the build rng and returns
// the shuffled, capped hyperplane list. Preprocess passes the from-scratch
// HYPERPOLAR builder; Repair passes one that reuses every hyperplane whose
// pair survived the patch. Both must leave the rng in the same state (their
// shuffles permute equal-length lists), so everything downstream — the LP
// draws of MARKCELL's per-cell arrangements seeded from rng.Int63() — replays
// identically.
func preprocessWith(ds *dataset.Dataset, oracle fairness.Oracle, n int, opt Options, buildHps func(items []geom.Vector, rng *rand.Rand) ([]geom.Hyperplane, error)) (*Approx, error) {
	if ds.D() < 2 {
		return nil, fmt.Errorf("cells: need at least 2 scoring attributes, got %d", ds.D())
	}
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	a := &Approx{DS: ds, Oracle: oracle}

	start := time.Now()
	items := make([]geom.Vector, 0, ds.N())
	if opt.PruneTopK > 0 {
		for _, i := range ds.TopKCandidates(opt.PruneTopK) {
			items = append(items, ds.Item(i))
		}
	} else {
		for i := 0; i < ds.N(); i++ {
			items = append(items, ds.Item(i))
		}
	}
	hps, err := buildHps(items, rng)
	if err != nil {
		return nil, err
	}
	a.Hyperplanes = hps
	a.Times.BuildHyperplanes = time.Since(start)

	start = time.Now()
	grid, err := NewGrid(ds.D(), n)
	if err != nil {
		return nil, err
	}
	a.Grid = grid
	a.Times.Partition = time.Since(start)

	start = time.Now()
	a.AssignStats = grid.AssignHyperplanes(hps)
	a.Times.Assign = time.Since(start)

	var oracleCalls atomic.Int64
	checker := engine.NewChecker(oracle)
	// One scratch and one weight vector per MARKCELL worker: the probes of
	// a build and of a repair rank through the same buffers, query after
	// query.
	newCheck := func() CheckFunc {
		var s engine.Scratch
		w := make(geom.Vector, ds.D())
		return func(theta geom.Angles) bool {
			theta.ToCartesianInto(1, w)
			fair, err := s.CheckFair(ds, checker, w)
			if err != nil {
				return false
			}
			oracleCalls.Add(1)
			return fair
		}
	}
	start = time.Now()
	workers := opt.Workers
	if workers == 0 {
		workers = 1
	}
	a.MarkStats = MarkCellsParallel(grid, hps, newCheck, rng.Int63(), opt.MaxRegionsPerCell, workers)
	a.Times.Mark = time.Since(start)

	start = time.Now()
	a.ColorStats = ColorCells(grid)
	a.Times.Color = time.Since(start)

	a.OracleCalls = int(oracleCalls.Load())
	a.buildN = n
	a.buildOpts = opt
	a.repairable = opt.PruneTopK == 0
	return a, nil
}

// Satisfiable reports whether any satisfactory function was found.
func (a *Approx) Satisfiable() bool { return a.MarkStats.Marked > 0 }

// Query is MDONLINE (Algorithm 11): if the query function is already
// satisfactory it is returned unchanged; otherwise the query's cell is
// located by per-axis binary search and the cell's stored satisfactory
// function is returned, scaled to the query's magnitude, together with its
// angular distance from the query. By Theorem 6 that distance exceeds the
// optimum by at most 4·arcsin(√(d−1)/2 · (η/N)^{1/(d−1)}).
func (a *Approx) Query(w geom.Vector) (geom.Vector, float64, error) {
	out, dist, _, err := a.query(w, false)
	return out, dist, err
}

// QueryRefined is Query plus a cheap neighbor refinement: besides the
// located cell's function it considers the functions stored in the 2(d−1)
// axis-adjacent cells and returns the closest. This never worsens the
// answer, costs O(d log N), and in practice recovers much of the gap that
// CELLCOLORING's nearest-seed heuristic leaves (see the abl-refine
// experiment).
func (a *Approx) QueryRefined(w geom.Vector) (geom.Vector, float64, error) {
	out, dist, _, err := a.query(w, true)
	return out, dist, err
}

// query is Query (refine false) or QueryRefined (refine true), also
// reporting the oracle's verdict on the query itself. It runs answer
// through a pooled scratch, so a query allocates only its answer.
func (a *Approx) query(w geom.Vector, refine bool) (out geom.Vector, dist float64, fair bool, err error) {
	if len(w) != a.DS.D() {
		return nil, 0, false, fmt.Errorf("cells: query dimension %d, want %d", len(w), a.DS.D())
	}
	s := engine.GetScratch()
	defer engine.PutScratch(s)
	out = make(geom.Vector, len(w))
	dist, fair, _, _, err = a.answer(w, out, refine, engine.NewChecker(a.Oracle), s, nil)
	if err != nil {
		return nil, 0, false, err
	}
	return out, dist, fair, nil
}

// answer is the one copy of MDONLINE's per-query step, shared by the scalar
// query and both batch kernels: when the query is already satisfactory it
// is copied into out unchanged, otherwise the closest stored function
// (bestStored, with cell cursor last) is written into out at the
// query's magnitude. w must have the index's dimension; out must have w's
// length. The fairness check, the polar conversion, the cell probes and the
// angular distances all run through s. Returns the distance, the verdict,
// and the cursor for the next query with whether this one reused last.
func (a *Approx) answer(w, out geom.Vector, refine bool, c engine.Checker, s *engine.Scratch, last *Cell) (dist float64, fair bool, next *Cell, resumed bool, err error) {
	fair, err = s.CheckFair(a.DS, c, w)
	if err != nil {
		return 0, false, last, false, err
	}
	if fair {
		copy(out, w)
		return 0, true, last, false, nil
	}
	m := len(w) - 1
	r, q, err := geom.ToPolarInto(w, s.Angles(m))
	if err != nil {
		return 0, false, last, false, err
	}
	bestF, best, next, resumed := a.bestStored(q, refine, s, last)
	if bestF == nil {
		return 0, false, next, resumed, ErrUnsatisfiable
	}
	bestF.ToCartesianInto(r, out)
	return best, false, next, resumed, nil
}

// bestStored is the cell-probe policy of every query path: the closest
// stored function among the located cell's and — when refine is set —
// those of the 2(d−1) axis-adjacent cells, with angular distances and the
// refinement probe angles in s's buffers. Returns (nil, +Inf) when no
// considered cell holds a function.
//
// last is a cell cursor: the cell the previous query located (nil when
// none). When q lies strictly inside last's box the partition-tree descent
// is skipped and last is reused; containment is checked against the cell's
// own bounds — the exact boundary values Locate compares with — under
// half-open [Lo, Hi) semantics, so every case where Locate would answer
// differently (q on an upper bound, at π/2, or Eps-negative) fails the
// check and falls back to the full descent. The located cell is therefore
// identical with or without a cursor. Refinement probes always run the full
// Locate: they step Gamma away from q, deliberately off-cell. Besides the
// answer it returns the located cell (the next cursor) and whether the
// cursor carried.
func (a *Approx) bestStored(q geom.Angles, refine bool, s *engine.Scratch, last *Cell) (geom.Angles, float64, *Cell, bool) {
	best := math.Inf(1)
	var bestF geom.Angles
	consider := func(c *Cell) {
		if c == nil || c.F == nil {
			return
		}
		if d, err := s.AngleDistance(q, c.F); err == nil && d < best {
			best, bestF = d, c.F
		}
	}
	located := last
	resumed := last != nil && cellContains(last, q)
	if !resumed {
		located = a.Grid.Locate(q)
	}
	consider(located)
	if refine {
		probe := s.Probe(len(q))
		copy(probe, q)
		for k := 0; k < a.DS.D()-1; k++ {
			for _, delta := range [2]float64{-a.Grid.Gamma, a.Grid.Gamma} {
				probe[k] = q[k] + delta
				consider(a.Grid.Locate(probe))
			}
			probe[k] = q[k]
		}
	}
	return bestF, best, located, resumed
}

// cellContains reports that q lies strictly inside c's half-open box: per
// axis Lo[k] ≤ q[k] < Hi[k]. Inside that region Locate's greatest-bound-≤-t
// search lands on exactly this cell (the box bounds are the node boundary
// values); everything else — upper bounds, π/2 in the last range,
// Eps-tolerated out-of-domain angles — is deliberately reported as outside
// so the caller re-runs the authoritative descent.
func cellContains(c *Cell, q geom.Angles) bool {
	lo, hi := c.Box.Lo, c.Box.Hi
	if len(q) != len(lo) {
		return false
	}
	for k, t := range q {
		if !(lo[k] <= t && t < hi[k]) {
			return false
		}
	}
	return true
}

// Theorem6Bound returns the additive approximation bound of Theorem 6 for
// this index's dimensionality and cell count.
func (a *Approx) Theorem6Bound() float64 {
	return Theorem6Bound(a.DS.D(), a.Grid.N)
}

// Theorem6Bound computes the paper's additive bound
//
//	4·arcsin( √(d−1)/2 · (π^{d/2}/(N·2^{d−1}·Γ(d/2)))^{1/(d−1)} ).
//
// The inner root is the hypercube side 2·sin(γ/2) for γ = CellSide(d, n).
func Theorem6Bound(d, n int) float64 {
	side := 2 * math.Sin(CellSide(d, n)/2)
	arg := math.Sqrt(float64(d-1)) / 2 * side
	if arg > 1 {
		arg = 1
	}
	return 4 * math.Asin(arg)
}
