package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"fairrank"
	"fairrank/internal/datagen"
)

// sizing holds every input size of the benchmark. fullSizes is what the
// command runs; the self-test runs tinySizes so each workload finishes in a
// fraction of a second.
type sizing struct {
	n2D, nApprox, nExact int
	cells                int // approx grid cells
	approxHyperplanes    int
	exactHyperplanes     int
	batch                map[string]int // queries per batch request, per engine
	batchPool            map[string]int // distinct batches per client, per engine
	hot                  int            // hot-pool directions per designer
	fresh                int            // fresh-pool directions per designer
	fill                 int            // directions that fill one memo cache past its cap
	clusterDesigners     int
	setups               int           // set-ups timed per run; setup_s is their median
	warm                 time.Duration // closed-loop warm-up before timing
	patchPeriod          time.Duration // patch-churn writer schedule
	probe                int           // sampled requests per layer probe
}

// The memo cache holds at most 16384 answers per designer generation and
// stops inserting when full (internal/service/cache.go); fill passes that
// point so the hit rate cannot drift while timing. The batch sizes give each
// engine a similar share of a bulk-batch round (about 25–30 ms each on a
// 2-vCPU host): the 2D kernel is cheap, so its batch is large and mostly
// JSON; an unfair exact query costs milliseconds, so its batch is small.
// The exact engine's share is also the noisiest one, so a larger share would
// make the round's latency unsteady.
var fullSizes = sizing{
	n2D: 2000, nApprox: 400, nExact: 300,
	cells: 100, approxHyperplanes: 200, exactHyperplanes: 400,
	batch:     map[string]int{"2d": 8192, "approx": 1024, "exact": 8},
	batchPool: map[string]int{"2d": 8, "approx": 8, "exact": 16},
	hot:       1024, fresh: 8192, fill: 16384 + 1024,
	clusterDesigners: 3,
	setups:           5,
	warm:             500 * time.Millisecond,
	patchPeriod:      2 * time.Second, // one round per timeWindows window of a 20 s run
	probe:            200,
}

var tinySizes = sizing{
	n2D: 60, nApprox: 40, nExact: 30,
	cells: 16, approxHyperplanes: 40, exactHyperplanes: 60,
	batch:     map[string]int{"2d": 16, "approx": 16, "exact": 4},
	batchPool: map[string]int{"2d": 2, "approx": 2, "exact": 2},
	hot:       8, fresh: 32, fill: 64,
	clusterDesigners: 2,
	setups:           2,
	warm:             50 * time.Millisecond,
	patchPeriod:      40 * time.Millisecond,
	probe:            8,
}

// engineNames fixes the order engines are reported in.
var engineNames = []string{"2d", "approx", "exact"}

// datasetSeed fixes every dataset and index build. Per-seed datasets would
// make the costs the benchmark reports depend on which data a seed drew (the
// approx and exact engines' build, repair and query costs vary by tens of
// percent between datasets of one size), so the datasets are part of a
// workload's definition, as in the repository's library benchmarks, and
// --seed draws everything that is sent to them: query streams, hot and fresh
// pools, batches, patch deltas and probe samples.
const datasetSeed = 17

// configFor is the designer spec of one engine: the min_share oracle over
// datagen.Biased data (protected group, top 20%, share 0.35) that every
// workload uses.
func configFor(sz sizing, mode string) (n, d int, spec fairrank.DesignerSpec) {
	spec.Oracle = fairrank.OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.2, Share: 0.35}
	spec.Config = fairrank.ConfigSpec{Mode: mode, Seed: datasetSeed}
	switch mode {
	case "2d":
		n, d = sz.n2D, 2
	case "approx":
		n, d = sz.nApprox, 3
		spec.Config.Cells = sz.cells
		spec.Config.MaxHyperplanes = sz.approxHyperplanes
	case "exact":
		n, d = sz.nExact, 2
		spec.Config.MaxHyperplanes = sz.exactHyperplanes
	}
	return n, d, spec
}

// instance is one designer's inputs plus the library Designer built from the
// same spec, which every served answer is compared against.
type instance struct {
	mode    string
	dataset string // dataset id on the server
	ds      *fairrank.Dataset
	dsSpec  fairrank.DatasetSpec
	spec    fairrank.DesignerSpec
	ref     *fairrank.Designer
	build   time.Duration // NewDesigner wall time of ref
}

// newInstance generates the dataset for mode and builds the reference
// designer. A dataset whose instance is unsatisfiable (no fair function
// exists, so every query would fail) or has no unfair direction among a
// probe of queries is skipped for the next datagen seed, deterministically.
func newInstance(sz sizing, mode, datasetID string) (*instance, error) {
	n, d, spec := configFor(sz, mode)
	spec.Dataset = datasetID
	for dsSeed := int64(datasetSeed); dsSeed < datasetSeed+32; dsSeed++ {
		ds, err := datagen.Biased(n, d, 0.5, 0.3, 1, dsSeed)
		if err != nil {
			return nil, fmt.Errorf("generate %s dataset: %w", mode, err)
		}
		oracle, err := spec.Oracle.Build(ds)
		if err != nil {
			return nil, fmt.Errorf("build %s oracle: %w", mode, err)
		}
		cfg, err := spec.Config.Build()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ref, err := fairrank.NewDesigner(ds, oracle, cfg)
		if err != nil {
			return nil, fmt.Errorf("build %s reference designer: %w", mode, err)
		}
		build := time.Since(start)
		if !ref.Satisfiable() || !hasUnfair(ref, d, dsSeed) {
			continue
		}
		return &instance{mode: mode, dataset: datasetID, ds: ds, dsSpec: fairrank.SpecOfDataset(ds),
			spec: spec, ref: ref, build: build}, nil
	}
	return nil, fmt.Errorf("no satisfiable %s instance with unfair queries", mode)
}

func hasUnfair(ref *fairrank.Designer, d int, seed int64) bool {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 64; i++ {
		fair, err := ref.IsFair(direction(r, d))
		if err == nil && !fair {
			return true
		}
	}
	return false
}

// direction draws a uniformly random positive weight vector.
func direction(r *rand.Rand, d int) []float64 {
	w := make([]float64, d)
	for j := range w {
		w[j] = r.Float64() + 1e-3
	}
	return w
}

// directions draws n distinct random directions. Distinct raw vectors with
// random components are distinct rays with probability 1, so none of them
// shares a memo-cache key with another.
func directions(r *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = direction(r, d)
	}
	return out
}

// batchDirections draws one batch of n distinct random directions. In two
// dimensions it draws one angle from each of n equal strata of the quarter
// circle, in shuffled order. The exact engine's cost per query is bimodal
// by angle (about 25 µs below one angle, milliseconds above it), so plain
// random batches differ in cost with the number of their queries that fall
// on the expensive side, most of all the small exact batches; stratified
// batches all hold the same share of expensive queries, fair and unfair
// ones included. Higher dimensions use directions.
func batchDirections(r *rand.Rand, n, d int) [][]float64 {
	if d != 2 {
		return directions(r, n, d)
	}
	out := make([][]float64, n)
	for j := range out {
		u := (r.Float64() + 1e-3) / (1 + 2e-3) // in (0, 1): both weights stay positive
		theta := (float64(j) + u) / float64(n) * math.Pi / 2
		out[j] = []float64{math.Cos(theta), math.Sin(theta)}
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// pool is a set of single queries with their request bodies and expected
// answers, prepared before timing so the load loop does no library work.
type pool struct {
	queries [][]float64
	bodies  [][]byte
	want    []*fairrank.Suggestion
	replies [][]byte // the reply expected for each query
}

func newPool(inst *instance, qs [][]float64) (*pool, error) {
	p := &pool{queries: qs}
	for _, q := range qs {
		s, err := inst.ref.Suggest(q)
		if err != nil {
			return nil, fmt.Errorf("reference %s suggest: %w", inst.mode, err)
		}
		p.bodies = append(p.bodies, suggestBody(q))
		p.want = append(p.want, s)
		p.replies = append(p.replies, replyBody(wireOf(s)))
	}
	return p, nil
}

// batchSet is one client's cycle of batch requests and their expected answers.
type batchSet struct {
	queries [][][]float64
	bodies  [][]byte
	want    [][]fairrank.BatchResult
	replies [][]byte
}

// newBatchSets prepares clients × count batches from batchDirections.
// Reference answers come from library SuggestBatch, computed on one
// goroutine per client.
func newBatchSets(inst *instance, r *rand.Rand, clients, count, size int) ([]*batchSet, error) {
	d := inst.ds.D()
	sets := make([]*batchSet, clients)
	for c := range sets {
		bs := &batchSet{}
		for b := 0; b < count; b++ {
			qs := batchDirections(r, size, d)
			bs.queries = append(bs.queries, qs)
			bs.bodies = append(bs.bodies, batchBody(qs))
		}
		sets[c] = bs
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := range sets {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, qs := range sets[c].queries {
				res := inst.ref.SuggestBatch(qs)
				for _, r := range res {
					if r.Err != nil {
						errs[c] = fmt.Errorf("reference %s batch: %w", inst.mode, r.Err)
						return
					}
				}
				sets[c].want = append(sets[c].want, res)
				sets[c].replies = append(sets[c].replies, batchReply(res))
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sets, nil
}

// batchReply is the reply expected for a batch.
func batchReply(res []fairrank.BatchResult) []byte {
	out := struct {
		Results []wireAnswer `json:"results"`
	}{Results: make([]wireAnswer, len(res))}
	for i, r := range res {
		out.Results[i] = wireOf(r.Suggestion)
	}
	return replyBody(out)
}

func sameBatch(got []answer, want []fairrank.BatchResult) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range want {
		if !sameAnswer(got[k], want[k].Suggestion) {
			return false
		}
	}
	return true
}

// sameAnswer reports whether a served answer equals the library's bit for
// bit: every weight, the distance and the already-fair flag.
func sameAnswer(got answer, want *fairrank.Suggestion) bool {
	if got.Error != "" || want == nil || got.AlreadyFair != want.AlreadyFair ||
		math.Float64bits(got.Distance) != math.Float64bits(want.Distance) ||
		len(got.Weights) != len(want.Weights) {
		return false
	}
	for i, w := range want.Weights {
		if math.Float64bits(got.Weights[i]) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
