package fairrank

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"fairrank/internal/datagen"
	"fairrank/internal/engine"
	"fairrank/internal/geom"
)

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs after a warm-up call. Collection is held
// off so a GC cannot empty the scratch pool mid-measurement.
func bytesPerRun(runs int, f func()) float64 {
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// The query paths rank through reused scratch buffers, never through
// per-query n-sized ones. With a warm scratch an approx SuggestBatch chunk
// allocates only its answer arena, and a scalar approx or exact Suggest
// allocates the same objects and bytes whether the dataset holds 40 or 400
// items (an n-sized score or order slice would add kilobytes at n=400).
func TestQueryAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("builds four indexes")
	}
	type cost struct{ allocs, bytes float64 }
	costs := map[string]map[int]cost{}
	record := func(name string, n int, f func()) {
		if costs[name] == nil {
			costs[name] = map[int]cost{}
		}
		costs[name][n] = cost{testing.AllocsPerRun(64, f), bytesPerRun(64, f)}
	}
	for _, n := range []int{40, 400} {
		ds, err := datagen.Biased(n, 3, 0.5, 0.3, 1, 17)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := MinShare(ds, "group", "protected", 0.2, 0.35)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := NewDesigner(ds, oracle, Config{Mode: ModeApprox, Seed: 17, Cells: 16, MaxHyperplanes: 40})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := NewDesigner(ds, oracle, Config{Mode: ModeExact, Seed: 17, MaxHyperplanes: 8})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(9))
		qs := make([]geom.Vector, 128)
		for i := range qs {
			qs[i] = geom.Vector{r.Float64() + 1e-3, r.Float64() + 1e-3, r.Float64() + 1e-3}
		}
		dst := make([]engine.Result, len(qs))
		s := new(engine.Scratch)
		approx.eng.SuggestBatch(dst, qs, s)
		var fair, unfair geom.Vector
		for i, res := range dst {
			if res.Err != nil {
				t.Fatalf("n=%d query %d: %v", n, i, res.Err)
			}
			if res.AlreadyFair {
				fair = qs[i]
			} else {
				unfair = qs[i]
			}
		}
		if fair == nil || unfair == nil {
			t.Fatalf("n=%d: the query fan needs fair and unfair queries", n)
		}
		record("approx SuggestBatch", n, func() { approx.eng.SuggestBatch(dst, qs, s) })
		for _, q := range []struct {
			kind string
			w    geom.Vector
		}{{"fair", fair}, {"unfair", unfair}} {
			record("approx Suggest "+q.kind, n, func() { approx.eng.Suggest(q.w) })
			record("exact Suggest "+q.kind, n, func() { exact.eng.Suggest(q.w) })
		}
	}
	if got := costs["approx SuggestBatch"][400].allocs; got != 1 {
		t.Errorf("approx SuggestBatch with a warm scratch allocates %v objects at n=400; want 1, the answer arena", got)
	}
	for name, byN := range costs {
		small, large := byN[40], byN[400]
		if small.allocs != large.allocs {
			t.Errorf("%s allocates %v objects at n=40 and %v at n=400; want the same", name, small.allocs, large.allocs)
		}
		// An n-sized int or float64 slice is 3200 bytes at n=400 and 320 at
		// n=40; the margin absorbs the runtime's own bookkeeping.
		if large.bytes-small.bytes > 512 {
			t.Errorf("%s allocates %.0f bytes per call at n=40 and %.0f at n=400; want no n-sized buffers", name, small.bytes, large.bytes)
		}
	}
}
