package fairrank

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairrank/internal/datagen"
)

// approxGoldenSpec is the bulk-batch benchmark's approx designer: n=400,
// d=3, 100 cells, 200 hyperplanes and the min_share oracle (protected group,
// top 20%, share 0.35) over datagen seed 17.
var approxGoldenSpec = DesignerSpec{
	Oracle: OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.2, Share: 0.35},
	Config: ConfigSpec{Mode: "approx", Cells: 100, MaxHyperplanes: 200, Seed: 17},
}

func approxGoldenDesigner(t *testing.T, ds *Dataset) *Designer {
	t.Helper()
	oracle, err := approxGoldenSpec.Oracle.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := approxGoldenSpec.Config.Build()
	if err != nil {
		t.Fatal(err)
	}
	des, err := NewDesigner(ds, oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return des
}

// approxGoldenQueries is the pinned query set: the axes, the diagonal,
// tie-heavy small-integer weights, and seeded random directions.
func approxGoldenQueries() [][]float64 {
	qs := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}}
	for a := 0; a <= 3; a++ {
		for b := 0; b <= 3; b++ {
			qs = append(qs, []float64{float64(a), float64(b), 2})
		}
	}
	r := rand.New(rand.NewSource(5))
	for j := 0; j < 192; j++ {
		qs = append(qs, []float64{r.Float64() + 1e-3, r.Float64() + 1e-3, r.Float64() + 1e-3})
	}
	return qs
}

// approxGoldenLine is goldenLine plus the already-fair verdict.
func approxGoldenLine(i int, s *Suggestion, err error) string {
	if err != nil {
		return goldenLine("approx", i, nil, 0, err)
	}
	return fmt.Sprintf("%s fair=%t\n", strings.TrimSuffix(goldenLine("approx", i, s.Weights, s.Distance, nil), "\n"), s.AlreadyFair)
}

func indexDigest(t *testing.T, des *Designer) string {
	t.Helper()
	var b bytes.Buffer
	if err := des.SaveIndex(&b); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
}

// TestApproxAnswersGolden pins the approx engine bit for bit on the
// benchmark's approx instance: every answer's weights, distance, error text
// and already-fair verdict through both Suggest and SuggestBatch, and the
// sha256 of the persisted index after a fresh build and after a single-item
// patch repair. The MARKCELL probes and the query-time fairness check both
// run through the oracle probe path, so a probe that ranks differently shows
// up in the index digests or the answers. Regenerate with -update-golden
// only for an intended change.
func TestApproxAnswersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and repairs an approx index")
	}
	ds, err := datagen.Biased(400, 3, 0.5, 0.3, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	des := approxGoldenDesigner(t, ds)
	qs := approxGoldenQueries()
	var single, batch bytes.Buffer
	for i, q := range qs {
		s, err := des.Suggest(q)
		single.WriteString(approxGoldenLine(i, s, err))
	}
	for i, r := range des.SuggestBatch(qs) {
		batch.WriteString(approxGoldenLine(i, r.Suggestion, r.Err))
	}

	delta := DatasetDelta{Added: []PatchItem{{Row: []float64{0.9, 0.4, 0.7}, Types: map[string]string{"group": "protected"}}}}
	patched, err := ApplyDelta(ds, delta)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := approxGoldenSpec.Oracle.Build(patched)
	if err != nil {
		t.Fatal(err)
	}
	next, repaired, err := des.Patch(patched, oracle, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired {
		t.Fatal("single-item patch rebuilt the approx index instead of repairing it")
	}
	digests := fmt.Sprintf("index built %s\nindex repaired %s\n", indexDigest(t, des), indexDigest(t, next))
	single.WriteString(digests)
	batch.WriteString(digests)

	path := filepath.Join("testdata", "approx_answers.golden")
	if *updateGolden {
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
