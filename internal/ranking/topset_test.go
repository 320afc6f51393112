package ranking

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/geom"
)

// topSetCase draws a dataset and a weight vector from seed. pool > 0 draws
// every row from pool distinct small-integer rows and uses integer weights,
// so scores tie heavily; scale multiplies the weights (a huge scale over
// unnormalized rows overflows scores to ±Inf, and mixed signs to NaN).
func topSetCase(seed int64, n, d, pool int, scale float64) (*dataset.Dataset, geom.Vector) {
	r := rand.New(rand.NewSource(seed))
	distinct := make([][]float64, n)
	if pool > 0 {
		distinct = make([][]float64, pool)
	}
	for i := range distinct {
		row := make([]float64, d)
		for j := range row {
			if pool > 0 {
				row[j] = float64(r.Intn(4))
			} else {
				row[j] = (r.Float64() - 0.2) * math.Pow(10, float64(r.Intn(8)))
			}
		}
		distinct[i] = row
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = distinct[r.Intn(len(distinct))]
	}
	names := make([]string, d)
	ds, err := dataset.New(names, rows)
	if err != nil {
		panic(err)
	}
	w := make(geom.Vector, d)
	for j := range w {
		if pool > 0 {
			w[j] = float64(r.Intn(3))
		} else {
			w[j] = r.Float64()
		}
		w[j] *= scale
	}
	return ds, w
}

// checkTopSet holds TopSet to its contract on one instance: with a NaN
// score, or k outside [1, n), the result and error are PartialOrder's;
// otherwise the first k entries are, as a set, the first k of the full
// ranking.Order.
func checkTopSet(t *testing.T, b *Buffers, ds *dataset.Dataset, w geom.Vector, k int) {
	t.Helper()
	got, err := b.TopSet(ds, w, k)
	got = slices.Clone(got)
	s, serr := Scores(ds, w)
	if serr != nil {
		t.Fatal(serr)
	}
	if k <= 0 || k >= ds.N() || slices.ContainsFunc(s, math.IsNaN) {
		want, werr := new(Buffers).PartialOrder(ds, w, k)
		if (err == nil) != (werr == nil) || !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d w=%v: fallback TopSet = %v, %v; PartialOrder = %v, %v", ds.N(), k, w, got, err, want, werr)
		}
		return
	}
	if err != nil {
		t.Fatalf("n=%d k=%d w=%v: %v", ds.N(), k, w, err)
	}
	full, err := Order(ds, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < k {
		t.Fatalf("n=%d k=%d: TopSet returned %d entries", ds.N(), k, len(got))
	}
	set := slices.Clone(got[:k])
	want := slices.Clone(full[:k])
	slices.Sort(set)
	slices.Sort(want)
	if !slices.Equal(set, want) {
		t.Fatalf("n=%d k=%d w=%v: TopSet set %v, full-order prefix set %v", ds.N(), k, w, set, want)
	}
}

// TestTopSetMatchesFullOrderPrefix is the differential property test: over
// continuous and tie-heavy data, every cutoff from the edges (1, n−1, n,
// n+1) and random ones in between, and weights scaled far enough to
// overflow scores to ±Inf or NaN, one reused Buffers must agree with the
// full sort's prefix set (or fall back to PartialOrder exactly).
func TestTopSetMatchesFullOrderPrefix(t *testing.T) {
	var b Buffers
	r := rand.New(rand.NewSource(71))
	scales := []float64{1, 1e300, math.MaxFloat64}
	for iter := 0; iter < 400; iter++ {
		n := 2 + r.Intn(300)
		d := 1 + r.Intn(4)
		pool := 0
		if iter%2 == 0 {
			pool = 1 + r.Intn(6) // many duplicated rows
		}
		ds, w := topSetCase(r.Int63(), n, d, pool, scales[iter%len(scales)])
		for _, k := range []int{1, n - 1, n, n + 1, 1 + r.Intn(n)} {
			checkTopSet(t, &b, ds, w, k)
		}
	}
}

func TestTopSetEdges(t *testing.T) {
	var b Buffers
	ds, _ := dataset.New([]string{"x"}, [][]float64{{3}, {1}, {2}, {3}})
	got, err := b.TopSet(ds, geom.Vector{1}, 2)
	if err != nil || !slices.Equal(got, []int{0, 3}) {
		t.Errorf("TopSet k=2 = %v, %v; want the two tied 3s, [0 3]", got, err)
	}
	got, err = b.TopSet(ds, geom.Vector{1}, 3)
	if err != nil || len(got) != 3 || slices.Contains(got, 1) {
		t.Errorf("TopSet k=3 = %v, %v; want {0, 2, 3}", got, err)
	}
	if _, err := b.TopSet(ds, geom.Vector{1}, 0); err == nil {
		t.Error("expected k≥1 error")
	}
	if _, err := b.TopSet(ds, geom.Vector{1, 2}, 2); err == nil {
		t.Error("expected dimension error")
	}
	// All-equal scores: the set is the k lowest indices.
	rows := make([][]float64, 30)
	for i := range rows {
		rows[i] = []float64{1, 2}
	}
	ties, _ := dataset.New([]string{"x", "y"}, rows)
	got, err = b.TopSet(ties, geom.Vector{2, 1}, 7)
	if err != nil || !slices.Equal(got, []int{0, 1, 2, 3, 4, 5, 6}) {
		t.Errorf("all-tied TopSet = %v, %v; want [0..6]", got, err)
	}
}

// A NaN score (an infinite weight against a zero value) routes TopSet to
// PartialOrder, whose result it must return unchanged.
func TestTopSetNaNFallsBack(t *testing.T) {
	ds, _ := dataset.New([]string{"x", "y"}, [][]float64{{0, 1}, {1, 2}, {2, 0}, {3, 5}, {1, 1}})
	w := geom.Vector{1, math.Inf(1)}
	var b Buffers
	checkTopSet(t, &b, ds, w, 2)
	s, _ := Scores(ds, w)
	if !slices.ContainsFunc(s, math.IsNaN) {
		t.Fatal("instance has no NaN score")
	}
}

// Trim releases the selection buffer with the score and order buffers.
func TestBuffersTrimReleasesSelection(t *testing.T) {
	ds, w := topSetCase(1, 200, 2, 0, 1)
	var b Buffers
	if _, err := b.TopSet(ds, w, 40); err != nil {
		t.Fatal(err)
	}
	b.Trim(200)
	if cap(b.sel) < 200 || cap(b.scores) < 200 {
		t.Fatal("Trim released buffers within the cap")
	}
	b.Trim(199)
	if b.sel != nil || b.scores != nil || b.order != nil {
		t.Fatal("Trim kept buffers above the cap")
	}
}

// FuzzTopSet holds TopSet to the full sort's prefix set on fuzzed
// instances: tie-heavy pools, any cutoff, and any weight scale (±Inf and
// NaN weights included).
func FuzzTopSet(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(0), 8, 1.0)
	f.Add(int64(2), uint8(40), uint8(2), uint8(3), 39, 1.0)
	f.Add(int64(3), uint8(9), uint8(2), uint8(2), 1, 1e300)
	f.Add(int64(4), uint8(17), uint8(3), uint8(0), 16, math.Inf(1))
	f.Add(int64(5), uint8(5), uint8(1), uint8(1), 7, 1.0)
	var b Buffers
	f.Fuzz(func(t *testing.T, seed int64, nRaw, dRaw, poolRaw uint8, k int, scale float64) {
		n := 1 + int(nRaw)
		d := 1 + int(dRaw)%4
		pool := int(poolRaw) % 8
		if k > 2*n || k < -2 {
			k = int(uint(k)%uint(n+2)) + 1
		}
		ds, w := topSetCase(seed, n, d, pool, scale)
		checkTopSet(t, &b, ds, w, k)
	})
}

// BenchmarkTopSet compares the set kernel with the sorted top-k prefix on
// the benchmark's approx instance shape: n=400, d=3, k=80.
func BenchmarkTopSet(b *testing.B) {
	ds, w := topSetCase(1, 400, 3, 0, 1)
	var bufs Buffers
	b.Run("topset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bufs.TopSet(ds, w, 80); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("partial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bufs.PartialOrder(ds, w, 80); err != nil {
				b.Fatal(err)
			}
		}
	})
}
