package fairrank

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"

	"fairrank/internal/datagen"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
)

// dominatesAll reports that b beats a in every scoring attribute, so b
// outscores a under every non-zero non-negative weight vector.
func dominatesAll(ds *Dataset, b, a int) bool {
	x, y := ds.Item(b), ds.Item(a)
	for j := range x {
		if !(x[j] > y[j]) {
			return false
		}
	}
	return true
}

// unsortedPrefix reports that some item of order[:k] is ranked above an
// item that beats it in every attribute — an order no weight vector gives.
func unsortedPrefix(ds *Dataset, order []int, k int) bool {
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if dominatesAll(ds, order[j], order[i]) {
				return true
			}
		}
	}
	return false
}

// The top-k set kernel hands an oracle its top items in index order, so
// only order-free oracles may be routed to it. Each oracle below reads the
// order of its prefix — a Prefix oracle, All(TopK k=50, TopK k=80) whose
// k=50 member reads a prefix of the 80-deep ranking, and a Func that flags
// any prefix no weight vector could produce — and must still see the sorted
// prefix through SuggestBatch and through the approx and exact builds. The
// fixture first shows that the set kernel's output would change the Prefix
// and All verdicts on some query and trip the Func's own check, so a
// misrouted probe cannot pass.
func TestOrderSensitiveOraclesGetSortedPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six approx and six exact indexes")
	}
	ds, err := datagen.Biased(400, 3, 0.5, 0.3, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := PrefixOracle(ds, "group", "protected", 80, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	top50, err := TopKOracle(ds, "group", 50, []GroupBound{{Group: "protected", Min: 18, Max: -1}})
	if err != nil {
		t.Fatal(err)
	}
	top80, err := TopKOracle(ds, "group", 80, []GroupBound{{Group: "protected", Min: 28, Max: -1}})
	if err != nil {
		t.Fatal(err)
	}
	var unsorted, funcCalls atomic.Int64
	sortedFunc := OracleFunc(func(order []int) bool {
		funcCalls.Add(1)
		if unsortedPrefix(ds, order, 80) {
			unsorted.Add(1)
		}
		return top80.Check(order)
	})

	r := rand.New(rand.NewSource(3))
	queries := make([][]float64, 128)
	for i := range queries {
		queries[i] = []float64{r.Float64() + 1e-3, r.Float64() + 1e-3, r.Float64() + 1e-3}
	}
	var bufs ranking.Buffers
	for _, tc := range []struct {
		name   string
		oracle Oracle
	}{
		{"Prefix", prefix},
		{"All(TopK k=50, TopK k=80)", AllOf(top50, top80)},
		{"Func", sortedFunc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			unsorted.Store(0)
			funcCalls.Store(0)
			detectable := false
			for _, q := range queries {
				full, err := Rank(ds, q)
				if err != nil {
					t.Fatal(err)
				}
				want := tc.oracle.Check(full)
				set, err := bufs.TopSet(ds, geom.Vector(q), 80)
				if err != nil {
					t.Fatal(err)
				}
				if tc.oracle.Check(set) != want {
					detectable = true
				}
			}
			if !detectable && unsorted.Load() == 0 {
				t.Fatal("the set kernel's output gives every query the full order's verdict; the fixture cannot tell a misrouted probe")
			}
			unsorted.Store(0)

			for _, mode := range []Mode{ModeApprox, ModeExact} {
				cfg := Config{Mode: mode, Seed: 17, Cells: 16, MaxHyperplanes: 60}
				if mode == ModeExact {
					cfg.MaxHyperplanes = 12
				}
				des, err := NewDesigner(ds, tc.oracle, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// A Func wrapper has no known depth, so its probes rank with
				// the full sort: the reference build.
				ref, err := NewDesigner(ds, OracleFunc(tc.oracle.Check), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var got, want bytes.Buffer
				if err := des.SaveIndex(&got); err != nil {
					t.Fatal(err)
				}
				if err := ref.SaveIndex(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%v build differs from the full-sort reference build", mode)
				}
				for i, res := range des.SuggestBatch(queries) {
					full, err := Rank(ds, queries[i])
					if err != nil {
						t.Fatal(err)
					}
					if res.Err != nil {
						t.Fatalf("%v query %d: %v", mode, i, res.Err)
					}
					if res.Suggestion.AlreadyFair != tc.oracle.Check(full) {
						t.Errorf("%v query %d: SuggestBatch already_fair = %v, full-order verdict differs", mode, i, res.Suggestion.AlreadyFair)
					}
				}
			}
			if n := unsorted.Load(); n > 0 {
				t.Errorf("the Func oracle saw %d prefixes no weight vector produces", n)
			}
			if tc.name == "Func" && funcCalls.Load() == 0 {
				t.Error("the Func oracle was never probed")
			}
		})
	}
}
