package cells

import (
	"math/rand"
	"runtime"
	"sync"

	"fairrank/internal/arrangement"
	"fairrank/internal/geom"
)

// CheckFunc evaluates the fairness oracle at a ranking function given by an
// angle vector, returning true when the induced ordering is satisfactory.
// Callers close over the dataset and oracle (and usually a call counter).
type CheckFunc func(geom.Angles) bool

// MarkStats summarizes a MarkCells pass.
type MarkStats struct {
	Marked       int // cells that intersect a satisfactory region
	OracleProbes int // oracle evaluations performed
	Inserted     int // hyperplane insertions across all per-cell arrangements
	Capped       int // cells abandoned at the MaxRegionsPerCell budget
}

// MarkCells runs MARKCELL (Algorithm 8) on every cell: it builds the
// arrangement of only the hyperplanes crossing the cell, restricted to the
// cell's box, probing a witness function of every region as soon as the
// region appears (ATC+, Algorithm 9) and stopping the construction early
// when a satisfactory function is found. Cells whose arrangement contains
// no satisfactory function are left unmarked for CELLCOLORING.
func MarkCells(g *Grid, hps []geom.Hyperplane, check CheckFunc, rng *rand.Rand) MarkStats {
	return MarkCellsCapped(g, hps, check, rng, 0)
}

// MarkCellsCapped is MarkCells with a per-cell region budget: a cell whose
// arrangement exceeds maxRegions probed regions is abandoned (left for
// CELLCOLORING). maxRegions ≤ 0 means unlimited.
func MarkCellsCapped(g *Grid, hps []geom.Hyperplane, check CheckFunc, rng *rand.Rand, maxRegions int) MarkStats {
	return MarkCellsParallel(g, hps, func() CheckFunc { return check }, rng.Int63(), maxRegions, 1)
}

// MarkCellsParallel runs MARKCELL over the cells with the given number of
// worker goroutines (workers ≤ 0 uses GOMAXPROCS). Cells are independent,
// so this parallelizes perfectly; each worker derives its own deterministic
// rng from seed, keeping results reproducible for a fixed worker count.
// newCheck runs once per worker goroutine, so each check may own its
// ranking buffers; whatever the checks share must be safe for concurrent
// use (the oracles in internal/fairness are read-only after construction;
// wrap a shared call counter in an atomic if exact counts matter).
func MarkCellsParallel(g *Grid, hps []geom.Hyperplane, newCheck func() CheckFunc, seed int64, maxRegions, workers int) MarkStats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		var stats MarkStats
		check := newCheck()
		rng := rand.New(rand.NewSource(seed))
		for _, c := range g.Cells {
			f, ok := markCell(c, hps, check, rng, &stats, maxRegions)
			if ok {
				c.F = f
				c.Marked = true
				stats.Marked++
			}
		}
		return stats
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total MarkStats
	)
	jobs := make(chan *Cell, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			check := newCheck()
			var local MarkStats
			for c := range jobs {
				f, ok := markCell(c, hps, check, rng, &local, maxRegions)
				if ok {
					c.F = f
					c.Marked = true
					local.Marked++
				}
			}
			mu.Lock()
			total.Marked += local.Marked
			total.OracleProbes += local.OracleProbes
			total.Inserted += local.Inserted
			total.Capped += local.Capped
			mu.Unlock()
		}(w)
	}
	for _, c := range g.Cells {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	return total
}

// markCell searches one cell for a satisfactory ranking function.
func markCell(c *Cell, hps []geom.Hyperplane, check CheckFunc, rng *rand.Rand, stats *MarkStats, maxRegions int) (geom.Angles, bool) {
	if len(c.HC) == 0 {
		// No ordering exchange crosses the cell: the ordering is constant
		// throughout, so its center speaks for the whole cell (lines 1-5 of
		// Algorithm 8).
		stats.OracleProbes++
		if check(c.Center) {
			return c.Center, true
		}
		return nil, false
	}
	arr := arrangement.New(c.Box, true, rng)
	tested := map[*arrangement.Region]int{}
	probe := func() (geom.Angles, bool) {
		for _, r := range arr.Regions() {
			if v, seen := tested[r]; seen && v == r.Version {
				continue
			}
			tested[r] = r.Version
			if r.Witness == nil {
				continue
			}
			stats.OracleProbes++
			if check(geom.Angles(r.Witness)) {
				return geom.Angles(r.Witness), true
			}
		}
		return nil, false
	}
	// The initial probe tests the cell center (the whole-box region).
	if f, ok := probe(); ok {
		return f, true
	}
	for _, hidx := range c.HC {
		if maxRegions > 0 && len(tested) > maxRegions {
			stats.Capped++
			return nil, false
		}
		arr.Insert(hps[hidx])
		stats.Inserted++
		if f, ok := probe(); ok {
			return f, true // early stop: skip the remaining hyperplanes
		}
	}
	return nil, false
}
