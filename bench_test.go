// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6). Each Benchmark corresponds to one experiment; custom metrics
// (exchanges, regions, hyperplanes, marked cells, oracle calls) report the
// series the paper plots alongside wall-clock time. cmd/experiments prints
// the same data as formatted tables. Sizes here are reduced so the full
// suite finishes in minutes — the cmd/experiments -full flag reproduces
// paper-scale runs.
package fairrank_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fairrank/internal/arrangement"
	"fairrank/internal/cells"
	"fairrank/internal/core"
	"fairrank/internal/datagen"
	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
	"fairrank/internal/twod"
)

// compasBench returns the normalized synthetic COMPAS projected to d attrs.
func compasBench(b *testing.B, n, d int) *dataset.Dataset {
	b.Helper()
	full, err := datagen.CompasNormalized(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := full.Project(datagen.CompasScoring[:d]...)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func benchOracle(b *testing.B, ds *dataset.Dataset) fairness.Oracle {
	b.Helper()
	o, err := fairness.MaxShare(ds, "race", "African-American", 0.30, 0.10)
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkFig17RaySweep regenerates Figure 17: 2D preprocessing time and
// ordering-exchange counts for growing n.
func BenchmarkFig17RaySweep(b *testing.B) {
	for _, n := range []int{100, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := compasBench(b, n, 2)
			oracle := benchOracle(b, ds)
			var exchanges int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, err := twod.RaySweep(ds, oracle, twod.Options{})
				if err != nil {
					b.Fatal(err)
				}
				exchanges = idx.ExchangeCount
			}
			b.ReportMetric(float64(exchanges), "exchanges")
		})
	}
}

// BenchmarkSweepIncremental measures the payoff of the incremental fairness
// oracles and the parallel segmented sweep: the same n=2000, d=2 TopK
// workload as Fig. 17, swept (a) with a full Oracle.Check per sector (the
// pre-incremental path), (b) with the O(1)-per-sector incremental state, and
// (c) incrementally across all cores. The equivalence tests in internal/twod
// prove all three produce byte-identical intervals and statistics.
func BenchmarkSweepIncremental(b *testing.B) {
	ds := compasBench(b, 2000, 2)
	oracle := benchOracle(b, ds)
	for _, v := range []struct {
		name string
		opt  twod.Options
	}{
		{"fullcheck-serial", twod.Options{FullCheck: true}},
		{"incremental-serial", twod.Options{}},
		{"incremental-parallel", twod.Options{Workers: -1}},
	} {
		b.Run(v.name, func(b *testing.B) {
			var calls int
			for i := 0; i < b.N; i++ {
				idx, err := twod.RaySweep(ds, oracle, v.opt)
				if err != nil {
					b.Fatal(err)
				}
				calls = idx.OracleCalls
			}
			b.ReportMetric(float64(calls), "oracleCalls")
		})
	}
}

// Benchmark2DOnline regenerates the §6.3 2D measurement: 2DONLINE latency.
// Compare against BenchmarkOrderingBaseline (the paper's 30µs vs 25ms).
func Benchmark2DOnline(b *testing.B) {
	ds := compasBench(b, 2000, 2)
	idx, err := twod.RaySweep(ds, benchOracle(b, ds), twod.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	queries := make([]geom.Vector, 64)
	for i := range queries {
		queries[i] = geom.Vector{r.Float64() + 1e-3, r.Float64() + 1e-3}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := idx.Query(queries[i%len(queries)]); err != nil && err != twod.ErrUnsatisfiable {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrderingBaseline measures ordering the dataset once — the cost a
// user pays merely to VALIDATE a function without the index.
func BenchmarkOrderingBaseline(b *testing.B) {
	ds := compasBench(b, 2000, 2)
	w := geom.Vector{0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ranking.Order(ds, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMDOnline regenerates the §6.3 MD measurement: MDONLINE cell
// lookup latency for d = 3..6 (paper: < 200µs, independent of n).
func BenchmarkMDOnline(b *testing.B) {
	for d := 3; d <= 6; d++ {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			n, nCells := 40, 2000
			if d >= 5 {
				n, nCells = 25, 50
			}
			ds := compasBench(b, n, d)
			approx, err := cells.Preprocess(ds, benchOracle(b, ds), nCells,
				cells.Options{Seed: 1, MaxRegionsPerCell: 32, Workers: -1})
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(3))
			angles := make([]geom.Angles, 64)
			for i := range angles {
				w := make(geom.Vector, d)
				for k := range w {
					w[k] = r.Float64() + 1e-3
				}
				_, a, err := geom.ToPolar(w)
				if err != nil {
					b.Fatal(err)
				}
				angles[i] = a
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c := approx.Grid.Locate(angles[i%len(angles)]); c == nil {
					b.Fatal("lookup failed")
				}
			}
		})
	}
}

// BenchmarkFig18ArrangementTree regenerates Figure 18: inserting hyperplanes
// with the arrangement tree vs the linear-scan baseline.
func BenchmarkFig18ArrangementTree(b *testing.B) {
	hps := buildBenchHyperplanes(b, 100, 3, 80)
	for _, useTree := range []bool{false, true} {
		name := "baseline"
		if useTree {
			name = "tree"
		}
		b.Run(name, func(b *testing.B) {
			var lpCalls int
			for i := 0; i < b.N; i++ {
				arr := arrangement.New(geom.FullAngleBox(3), useTree, rand.New(rand.NewSource(1)))
				for _, h := range hps {
					arr.Insert(h)
				}
				lpCalls = arr.Stats.LPCalls
			}
			b.ReportMetric(float64(lpCalls), "LPcalls")
		})
	}
}

// BenchmarkFig19ArrangementComplexity regenerates Figure 19: |R| after
// inserting a growing number of hyperplanes (d = 3).
func BenchmarkFig19ArrangementComplexity(b *testing.B) {
	hps := buildBenchHyperplanes(b, 100, 3, 120)
	for _, count := range []int{30, 60, 120} {
		b.Run(fmt.Sprintf("h=%d", count), func(b *testing.B) {
			var regions int
			for i := 0; i < b.N; i++ {
				arr := arrangement.New(geom.FullAngleBox(3), true, rand.New(rand.NewSource(1)))
				for _, h := range hps[:count] {
					arr.Insert(h)
				}
				regions = arr.NumRegions()
			}
			b.ReportMetric(float64(regions), "regions")
		})
	}
}

// BenchmarkFig20Hyperplanes regenerates Figure 20: HYPERPOLAR construction
// of all ordering exchanges for growing n (d = 3).
func BenchmarkFig20Hyperplanes(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := compasBench(b, n, 3)
			items := make([]geom.Vector, ds.N())
			for i := range items {
				items[i] = ds.Item(i)
			}
			var count int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hps, err := arrangement.BuildHyperplanes(items)
				if err != nil {
					b.Fatal(err)
				}
				count = len(hps)
			}
			b.ReportMetric(float64(count), "hyperplanes")
		})
	}
}

// BenchmarkFig21CellHyperplanes regenerates Figure 21: CELLPLANE×
// assignment of hyperplanes to cells (n = 100, d = 4), reporting the mean
// number of hyperplanes crossing a cell.
func BenchmarkFig21CellHyperplanes(b *testing.B) {
	ds := compasBench(b, 100, 4)
	items := make([]geom.Vector, ds.N())
	for i := range items {
		items[i] = ds.Item(i)
	}
	hps, err := arrangement.BuildHyperplanes(items)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := cells.NewGrid(4, 1500)
	if err != nil {
		b.Fatal(err)
	}
	var crossings int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.AssignHyperplanes(hps)
		crossings = 0
		for _, c := range grid.Cells {
			crossings += len(c.HC)
		}
	}
	b.ReportMetric(float64(crossings)/float64(grid.NumCells()), "mean|HC[c]|")
}

// BenchmarkFig22PreprocessVsN regenerates Figure 22: full §5 preprocessing
// for growing n at d = 3.
func BenchmarkFig22PreprocessVsN(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := compasBench(b, n, 3)
			oracle := benchOracle(b, ds)
			var marked int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				approx, err := cells.Preprocess(ds, oracle, 2000,
					cells.Options{Seed: 1, MaxRegionsPerCell: 128, Workers: -1})
				if err != nil {
					b.Fatal(err)
				}
				marked = approx.MarkStats.Marked
			}
			b.ReportMetric(float64(marked), "markedCells")
		})
	}
}

// BenchmarkFig23PreprocessVsD regenerates Figure 23: full §5 preprocessing
// for growing d at n = 100.
func BenchmarkFig23PreprocessVsD(b *testing.B) {
	for _, p := range []struct{ d, cells int }{{3, 2000}, {4, 800}, {5, 200}} {
		b.Run(fmt.Sprintf("d=%d", p.d), func(b *testing.B) {
			ds := compasBench(b, 100, p.d)
			oracle := benchOracle(b, ds)
			var oracleCalls int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				approx, err := cells.Preprocess(ds, oracle, p.cells,
					cells.Options{Seed: 1, MaxRegionsPerCell: 64, Workers: -1})
				if err != nil {
					b.Fatal(err)
				}
				oracleCalls = approx.OracleCalls
			}
			b.ReportMetric(float64(oracleCalls), "oracleCalls")
		})
	}
}

// BenchmarkFig16ValidationMD regenerates the Figure 16 workload: preprocess
// COMPAS d=3 and answer 100 random queries, reporting how many were
// satisfactory as-is and the worst suggestion distance.
func BenchmarkFig16ValidationMD(b *testing.B) {
	full, err := datagen.CompasNormalized(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := full.Project("start", "c_days_from_compas", "juv_other_count")
	if err != nil {
		b.Fatal(err)
	}
	oracle := benchOracle(b, ds)
	var satisfied int
	var worst float64
	for i := 0; i < b.N; i++ {
		approx, err := cells.Preprocess(ds, oracle, 2000, cells.Options{
			Seed: 1, MaxRegionsPerCell: 128, PruneTopK: 30, Workers: -1})
		if err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(4))
		satisfied, worst = 0, 0
		for q := 0; q < 100; q++ {
			w := geom.Vector{r.Float64() + 1e-3, r.Float64() + 1e-3, r.Float64() + 1e-3}
			_, dist, err := approx.Query(w)
			if err != nil {
				continue
			}
			if dist == 0 {
				satisfied++
			} else if dist > worst {
				worst = dist
			}
		}
	}
	b.ReportMetric(float64(satisfied), "satisfiedOf100")
	b.ReportMetric(worst, "worstθ")
}

// BenchmarkVal2DSingleRegion regenerates the §6.2 single-region study:
// scoring {juv_other_count, age} with the age_binary oracle.
func BenchmarkVal2DSingleRegion(b *testing.B) {
	full, err := datagen.CompasNormalized(2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := full.Project("juv_other_count", "age")
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := fairness.NewTopK(ds, "age_binary", 100,
		[]fairness.GroupBound{{Group: "le35", Min: -1, Max: 70}})
	if err != nil {
		b.Fatal(err)
	}
	var regions int
	for i := 0; i < b.N; i++ {
		idx, err := twod.RaySweep(ds, oracle, twod.Options{})
		if err != nil {
			b.Fatal(err)
		}
		regions = len(idx.Intervals())
	}
	b.ReportMetric(float64(regions), "satRegions")
}

// BenchmarkMDBaselineQuery measures MDBASELINE (Algorithm 6): the per-query
// non-linear programming over all satisfactory regions that motivates the
// §5 approximation (paper: impractical for interactive use).
func BenchmarkMDBaselineQuery(b *testing.B) {
	ds := compasBench(b, 30, 3)
	idx, err := core.SatRegions(ds, benchOracle(b, ds), core.Options{
		UseTree: true, MaxHyperplanes: 40, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if !idx.Satisfiable() {
		b.Skip("unsatisfiable instance")
	}
	r := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := geom.Vector{r.Float64() + 1e-3, r.Float64() + 1e-3, r.Float64() + 1e-3}
		if _, _, err := idx.Baseline(w); err != nil && err != core.ErrUnsatisfiable {
			b.Fatal(err)
		}
	}
}

// BenchmarkDOTSampling regenerates the §6.4 workload at reduced scale:
// preprocess a 1,000-record sample of a DOT-like dataset and validate the
// assigned functions against the full data.
func BenchmarkDOTSampling(b *testing.B) {
	raw, err := datagen.DOT(50000, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := raw.Normalize(datagen.DOTScoring...)
	if err != nil {
		b.Fatal(err)
	}
	fullOracle := dotOracle(b, ds)
	var validFrac float64
	for i := 0; i < b.N; i++ {
		sample, _, err := ds.Sample(1000, rand.New(rand.NewSource(2)))
		if err != nil {
			b.Fatal(err)
		}
		approx, err := cells.Preprocess(sample, dotOracle(b, sample), 500,
			cells.Options{Seed: 1, MaxRegionsPerCell: 64, PruneTopK: 100})
		if err != nil {
			b.Fatal(err)
		}
		// Validate a deterministic spread of assigned functions on the
		// full dataset.
		valid, total := 0, 0
		for ci := 0; ci < approx.Grid.NumCells(); ci += approx.Grid.NumCells()/20 + 1 {
			f := approx.Grid.Cells[ci].F
			if f == nil {
				continue
			}
			order, err := ranking.Order(ds, f.ToCartesian(1))
			if err != nil {
				b.Fatal(err)
			}
			total++
			if fullOracle.Check(order) {
				valid++
			}
		}
		if total > 0 {
			validFrac = float64(valid) / float64(total)
		}
	}
	b.ReportMetric(validFrac, "validOnFullFrac")
}

func dotOracle(b *testing.B, ds *dataset.Dataset) fairness.Oracle {
	b.Helper()
	var all fairness.All
	for _, carrier := range []string{"DL", "AA", "WN", "UA"} {
		o, err := fairness.MaxShare(ds, "airline_name", carrier, 0.10, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		all = append(all, o)
	}
	return all
}

// BenchmarkTheorem6Bound verifies (as a measured series) that approximate
// answers stay within the Theorem 6 bound of the exact 2D optimum.
func BenchmarkTheorem6Bound(b *testing.B) {
	full, err := datagen.CompasNormalized(200, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := full.Project("c_days_from_compas", "start")
	if err != nil {
		b.Fatal(err)
	}
	oracle := benchOracle(b, ds)
	sweep, err := twod.RaySweep(ds, oracle, twod.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if !sweep.Satisfiable() {
		b.Skip("unsatisfiable")
	}
	approx, err := cells.Preprocess(ds, oracle, 2000, cells.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	bound := approx.Theorem6Bound()
	var worstGap float64
	r := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		theta := r.Float64() * math.Pi / 2
		w := geom.Vector{math.Cos(theta), math.Sin(theta)}
		_, dOpt, err1 := sweep.Query(w)
		_, dApp, err2 := approx.Query(w)
		if err1 != nil || err2 != nil {
			continue
		}
		if gap := dApp - dOpt; gap > worstGap {
			worstGap = gap
		}
	}
	b.ReportMetric(worstGap, "worstGap")
	b.ReportMetric(bound, "thm6bound")
}

func buildBenchHyperplanes(b *testing.B, n, d, limit int) []geom.Hyperplane {
	b.Helper()
	ds := compasBench(b, n, d)
	items := make([]geom.Vector, ds.N())
	for i := range items {
		items[i] = ds.Item(i)
	}
	hps, err := arrangement.BuildHyperplanes(items)
	if err != nil {
		b.Fatal(err)
	}
	arrangement.ShuffleHyperplanes(hps, rand.New(rand.NewSource(1)))
	if len(hps) > limit {
		hps = hps[:limit]
	}
	return hps
}
