package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
)

// resolveLabelWorkers maps an Options.Workers value to an effective worker
// count, clamped to the number of independent work units.
func resolveLabelWorkers(workers, units int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > units {
		workers = units
	}
	return workers
}

// labelRegionsByWitness labels every region by ranking the dataset at the
// region's witness and asking the oracle — the plain SATREGIONS labeling
// pass. Regions are independent, so the loop fans out across workers; every
// region's verdict depends only on its own witness, making the labels
// identical for any worker count.
func labelRegionsByWitness(idx *MDIndex, counter *fairness.Counter, workers int) error {
	regions := idx.Arr.Regions()
	workers = resolveLabelWorkers(workers, len(regions))
	check := engine.NewChecker(counter)
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s engine.Scratch
			for {
				r := int(next.Add(1)) - 1
				if r >= len(regions) {
					return
				}
				reg := regions[r]
				wv := geom.Angles(reg.Witness).ToCartesian(1)
				fair, err := s.CheckFair(idx.DS, check, wv)
				if err != nil {
					errs[w] = err
					return
				}
				reg.Satisfactory = fair
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// adjacency holds the single-flip neighbor structure of an arrangement's
// regions: region sign vectors, their zobrist hashes, and a hash-bucket map
// making "the region across hyperplane h" an O(1) expected lookup.
type adjacency struct {
	signs   [][]bool // region → hyperplane → true = Above
	hashes  []uint64
	zob     []uint64
	buckets map[uint64][]int
	nH      int
}

// buildAdjacency computes sign vectors, hashes, and buckets; the per-region
// sign computation is O(nH) and independent, so it fans out across workers.
func buildAdjacency(idx *MDIndex, workers int) *adjacency {
	regions := idx.Arr.Regions()
	hps := idx.Arr.Hyperplanes
	nR, nH := len(regions), len(hps)
	zobRng := rand.New(rand.NewSource(0x5eed))
	a := &adjacency{
		signs:   make([][]bool, nR),
		hashes:  make([]uint64, nR),
		zob:     make([]uint64, nH),
		buckets: make(map[uint64][]int, nR),
		nH:      nH,
	}
	for h := range a.zob {
		a.zob[h] = zobRng.Uint64()
	}
	workers = resolveLabelWorkers(workers, nR)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := int(next.Add(1)) - 1
				if r >= nR {
					return
				}
				s := make([]bool, nH)
				var hash uint64
				for h := range hps {
					if hps[h].SideOf(regions[r].Witness) == geom.Above {
						s[h] = true
						hash ^= a.zob[h]
					}
				}
				a.signs[r] = s
				a.hashes[r] = hash
			}
		}()
	}
	wg.Wait()
	for r := 0; r < nR; r++ {
		a.buckets[a.hashes[r]] = append(a.buckets[a.hashes[r]], r)
	}
	return a
}

// neighbor returns the region on the other side of hyperplane h, or −1.
func (a *adjacency) neighbor(r, h int) int {
	want := a.hashes[r] ^ a.zob[h]
	for _, c := range a.buckets[want] {
		if c == r {
			continue
		}
		diff := 0
		for k := 0; k < a.nH && diff <= 1; k++ {
			if a.signs[c][k] != a.signs[r][k] {
				diff++
				if k != h {
					diff = 2
				}
			}
		}
		if diff == 1 {
			return c
		}
	}
	return -1
}

// labelRegionsIncremental labels every region of the arrangement with the
// oracle's verdict by visiting regions in adjacency order: two regions are
// adjacent when their hyperplane sign vectors differ in exactly one
// hyperplane, and crossing that hyperplane exchanges exactly the hyperplane's
// item pair in the induced ordering. A DFS over the adjacency graph therefore
// needs one ordering swap per edge (applied on entry, undone on backtrack)
// and one O(1) incremental oracle probe per region, instead of one full
// O(n log n) sort plus O(k) oracle read per region. Each connected component
// of the graph is seeded with one full sort at its root witness; isolated
// regions degrade to exactly the old per-witness cost.
//
// Components are independent — a component's verdicts depend only on its own
// root sort and DFS, both deterministic — so with workers > 1 they are
// labeled concurrently, each worker carrying its own mutable order and
// incremental oracle state. Labels are identical for any worker count.
func labelRegionsIncremental(idx *MDIndex, counter *fairness.Counter, itemIDs []int, workers int) error {
	regions := idx.Arr.Regions()
	nR := len(regions)
	if nR == 0 {
		return nil
	}
	adj := buildAdjacency(idx, workers)
	nH := adj.nH

	// Component discovery: a cheap BFS over the adjacency structure (no
	// oracle, no ordering) collecting one root per component — the
	// smallest-index region, matching the serial visit order.
	comp := make([]int, nR)
	for r := range comp {
		comp[r] = -1
	}
	var roots []int
	var queue []int
	for r := 0; r < nR; r++ {
		if comp[r] >= 0 {
			continue
		}
		id := len(roots)
		roots = append(roots, r)
		comp[r] = id
		queue = append(queue[:0], r)
		for len(queue) > 0 {
			cur := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for h := 0; h < nH; h++ {
				if c := adj.neighbor(cur, h); c >= 0 && comp[c] < 0 {
					comp[c] = id
					queue = append(queue, c)
				}
			}
		}
	}

	visited := make([]bool, nR)
	// labelComponent runs the oracle-driven DFS from one root using the
	// worker's private ordering and incremental state. visited is shared
	// across workers but components are disjoint region sets, so no index is
	// ever touched by two workers.
	labelComponent := func(root int, mo *ranking.MutableOrder, inc fairness.Incremental) {
		swapPair := func(h int) {
			hp := idx.Arr.Hyperplanes[h]
			posA, posB := mo.Swap(itemIDs[hp.I], itemIDs[hp.J])
			inc.Swap(posA, posB)
		}
		visited[root] = true
		regions[root].Satisfactory = inc.Valid()
		// Iterative DFS: the 2D exact mode produces a path-shaped adjacency
		// graph with O(n²) regions, so recursion depth would grow
		// quadratically in the dataset size and overflow the goroutine stack.
		type frame struct {
			region int
			nextH  int // next hyperplane to try crossing
			viaH   int // hyperplane crossed to enter this region (−1 at a root)
		}
		stack := []frame{{region: root, nextH: 0, viaH: -1}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.nextH >= nH {
				if f.viaH >= 0 {
					swapPair(f.viaH) // undo on backtrack (a swap is its own inverse)
				}
				stack = stack[:len(stack)-1]
				continue
			}
			h := f.nextH
			f.nextH++
			c := adj.neighbor(f.region, h)
			if c < 0 || visited[c] {
				continue
			}
			swapPair(h)
			visited[c] = true
			regions[c].Satisfactory = inc.Valid()
			stack = append(stack, frame{region: c, nextH: 0, viaH: h})
		}
	}

	workers = resolveLabelWorkers(workers, len(roots))
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var bufs ranking.Buffers
			var mo *ranking.MutableOrder
			inc := fairness.NewIncremental(counter)
			for {
				k := int(next.Add(1)) - 1
				if k >= len(roots) {
					return
				}
				root := roots[k]
				// Seed the component with one full sort at the root witness.
				wv := geom.Angles(regions[root].Witness).ToCartesian(1)
				order, err := bufs.Order(idx.DS, wv)
				if err != nil {
					errs[w] = err
					return
				}
				if mo == nil {
					mo = ranking.NewMutableOrder(order)
				} else {
					mo.Reset(order)
				}
				inc.Begin(mo.Order())
				labelComponent(root, mo, inc)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
