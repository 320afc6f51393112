package ranking

import (
	"fmt"
	"slices"

	"fairrank/internal/dataset"
	"fairrank/internal/geom"
)

// PartialOrder returns an ordering of the item indices whose first k
// entries are exactly the top-k of the full ordering (score descending,
// ties by ascending index), with the remaining entries in unspecified
// order. It runs in O(n + k log k) expected time via quickselect instead
// of the O(n log n) full sort — the fast path for fairness oracles that
// inspect only a top-k prefix in order. k ≥ n gives the full ordering. The
// returned slice aliases the buffers and is valid until the next call.
func (b *Buffers) PartialOrder(ds *dataset.Dataset, w geom.Vector, k int) ([]int, error) {
	if k >= ds.N() {
		return b.Order(ds, w)
	}
	if k <= 0 {
		return nil, fmt.Errorf("ranking: PartialOrder needs k ≥ 1, got %d", k)
	}
	s, order, err := b.fill(ds, w)
	if err != nil {
		return nil, err
	}
	partialSort(order, s, k)
	return order, nil
}

// partialSort places the k best items (score descending, ties by ascending
// index), exactly sorted, at the front of order.
func partialSort(order []int, s []float64, k int) {
	better := func(a, b int) bool {
		if s[a] != s[b] {
			return s[a] > s[b]
		}
		return a < b
	}
	quickselect(order, k, better)
	// better is a strict total order, so the sorted prefix is unique and any
	// correct sort yields it; SortFunc does so without sort.Slice's
	// reflection-built swapper allocation.
	slices.SortFunc(order[:k], func(a, b int) int {
		switch {
		case better(a, b):
			return -1
		case a == b:
			return 0
		}
		return 1
	})
}

// quickselect partitions order so that the k best items (per better) occupy
// order[:k], in expected linear time (median-of-three pivots; insertion
// fallback for small ranges).
func quickselect(order []int, k int, better func(a, b int) bool) {
	lo, hi := 0, len(order)
	// Deterministic pivot choice keeps results reproducible.
	for hi-lo > 12 {
		mid := lo + (hi-lo)/2
		// Median of three: order[lo], order[mid], order[hi-1].
		a, b, c := order[lo], order[mid], order[hi-1]
		var pivot int
		switch {
		case better(a, b) == better(b, c):
			pivot = b
		case better(b, a) == better(a, c):
			pivot = a
		default:
			pivot = c
		}
		// Partition around pivot.
		i, j := lo, hi-1
		for i <= j {
			for better(order[i], pivot) {
				i++
			}
			for better(pivot, order[j]) {
				j--
			}
			if i <= j {
				order[i], order[j] = order[j], order[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return // order[:k] holds the k best already
		}
	}
	// Insertion sort the small remaining window.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && better(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// TopKAware is implemented by oracles that only inspect the first K items
// of an ordering; index builders use it to rank partially instead of fully.
type TopKAware interface {
	K() int
}
