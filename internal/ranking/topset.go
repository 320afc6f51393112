package ranking

import (
	"fairrank/internal/dataset"
	"fairrank/internal/geom"
)

// TopSet returns a slice whose first k entries are exactly the top-k set of
// the full ordering under w (score descending, ties by ascending index), in
// unspecified order — all an order-free oracle (fairness.OrderFree) reads.
// It runs in expected O(n) with no index indirection: it computes the
// scores, selects the k-th largest score t on a plain copy of them, and
// takes every item scoring above t plus the lowest-index items scoring
// exactly t. When some score is NaN (selection needs a total order), or
// k ≤ 0 or k ≥ n, it falls back to PartialOrder and inherits its result and
// errors. The returned slice aliases the buffers and is valid until the
// next call.
func (b *Buffers) TopSet(ds *dataset.Dataset, w geom.Vector, k int) ([]int, error) {
	n := ds.N()
	if k <= 0 || k >= n {
		return b.PartialOrder(ds, w, k)
	}
	s, err := b.score(ds, w)
	if err != nil {
		return nil, err
	}
	if cap(b.sel) < n {
		b.sel = make([]float64, n)
	}
	sel := b.sel[:n]
	nan := false
	for i, x := range s {
		sel[i] = x
		if x != x {
			nan = true
		}
	}
	if nan {
		return b.PartialOrder(ds, w, k)
	}
	m := k - 1
	selectDesc(sel, m)
	t := sel[m]
	// ties is how many items scoring exactly t belong to the set: sel[:m]
	// holds every score above t.
	ties := k
	for _, x := range sel[:m] {
		if x > t {
			ties--
		}
	}
	out := b.order[:n]
	j := 0
	for i, x := range s {
		if x > t || (x == t && ties > 0) {
			if x == t {
				ties--
			}
			out[j] = i
			j++
		}
	}
	return out[:k], nil
}

// insertionDesc sorts a short slice in descending order.
func insertionDesc(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] > a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// selectDesc rearranges a so that a[m] is the value a descending sort would
// put there, with a[:m] ≥ a[m] ≥ a[m+1:], in expected linear time
// (median-of-three Hoare partitions, insertion sort for small ranges). The
// values must be totally ordered: no NaN.
func selectDesc(a []float64, m int) {
	lo, hi := 0, len(a)
	for hi-lo > 12 {
		mid := lo + (hi-lo)/2
		x, y, z := a[lo], a[mid], a[hi-1]
		var pivot float64
		switch {
		case (x > y) == (y > z):
			pivot = y
		case (y > x) == (x > z):
			pivot = x
		default:
			pivot = z
		}
		i, j := lo, hi-1
		for i <= j {
			for a[i] > pivot {
				i++
			}
			for pivot > a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case m <= j:
			hi = j + 1
		case m >= i:
			lo = i
		default:
			return // j < m < i: a[m] equals the pivot and is in place
		}
	}
	insertionDesc(a[lo:hi])
}
