package fairrank

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fairrank/internal/datagen"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/exact_answers.golden from the current code")

// goldenExactInstances are the exact-engine instances whose answer bits are
// pinned: the bulk-batch benchmark's exact designer (n=300, d=2, 400
// hyperplanes) and a small d=3 arrangement. Both use the benchmark's
// min_share oracle (protected group, top 20%, share 0.35).
var goldenExactInstances = []struct {
	name        string
	n, d        int
	hyperplanes int
}{
	{"bulk-exact-2d", 300, 2, 400},
	{"exact-3d", 40, 3, 40},
}

// goldenQueries returns the instance's fixed query set: stratified angles
// over the quarter circle (fair and unfair ones) plus the two near-axis rays
// in two dimensions, seeded random directions in three.
func goldenQueries(d int) [][]float64 {
	var qs [][]float64
	if d == 2 {
		const k = 96
		for j := 0; j < k; j++ {
			theta := (float64(j) + 0.5) / k * math.Pi / 2
			qs = append(qs, []float64{math.Cos(theta), math.Sin(theta)})
		}
		return append(qs, []float64{1e-9, 1}, []float64{1, 1e-9})
	}
	r := rand.New(rand.NewSource(5))
	for j := 0; j < 24; j++ {
		w := make([]float64, d)
		for k := range w {
			w[k] = r.Float64() + 1e-3
		}
		qs = append(qs, w)
	}
	return qs
}

func goldenDesigner(t *testing.T, n, d, hyperplanes int) *Designer {
	t.Helper()
	ds, err := datagen.Biased(n, d, 0.5, 0.3, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.2, Share: 0.35}.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	des, err := NewDesigner(ds, oracle, Config{Mode: ModeExact, Seed: 17, MaxHyperplanes: hyperplanes})
	if err != nil {
		t.Fatal(err)
	}
	return des
}

// goldenLine renders one answer as bit patterns: the weights and the
// distance in hex, or the error text.
func goldenLine(name string, i int, w []float64, dist float64, err error) string {
	if err != nil {
		return fmt.Sprintf("%s %d err %q\n", name, i, err.Error())
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %d ok", name, i)
	for _, x := range w {
		fmt.Fprintf(&b, " %016x", math.Float64bits(x))
	}
	fmt.Fprintf(&b, " %016x\n", math.Float64bits(dist))
	return b.String()
}

// TestExactAnswersGolden pins the exact engine's answers bit for bit —
// weights, distance and error text — through both Suggest and SuggestBatch.
// The answers depend on the order of floating-point operations and of the
// solver's random draws, so any change to the LP/NLP solvers that alters
// either shows up here. Regenerate with -update-golden only for an intended
// answer change.
func TestExactAnswersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two exact arrangements")
	}
	var single, batch bytes.Buffer
	for _, inst := range goldenExactInstances {
		des := goldenDesigner(t, inst.n, inst.d, inst.hyperplanes)
		qs := goldenQueries(inst.d)
		for i, q := range qs {
			s, err := des.Suggest(q)
			if err != nil {
				single.WriteString(goldenLine(inst.name, i, nil, 0, err))
				continue
			}
			single.WriteString(goldenLine(inst.name, i, s.Weights, s.Distance, nil))
		}
		for i, r := range des.SuggestBatch(qs) {
			if r.Err != nil {
				batch.WriteString(goldenLine(inst.name, i, nil, 0, r.Err))
				continue
			}
			batch.WriteString(goldenLine(inst.name, i, r.Suggestion.Weights, r.Suggestion.Distance, nil))
		}
	}
	path := filepath.Join("testdata", "exact_answers.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, single.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(single.Bytes(), want) {
		t.Errorf("Suggest answers differ from %s:\n%s", path, firstDiff(single.Bytes(), want))
	}
	if !bytes.Equal(batch.Bytes(), want) {
		t.Errorf("SuggestBatch answers differ from %s:\n%s", path, firstDiff(batch.Bytes(), want))
	}
}

func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
