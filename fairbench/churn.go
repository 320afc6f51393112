package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fairrank"
)

// patch-churn: design-loop reads on one connection while the other issues
// single-item PATCHes (remove one item, add one) on a fixed schedule. Each
// scheduled round patches the 2D dataset and then the approx dataset. The
// end-to-end metrics are the reads': a 20 s run holds only twenty PATCHes,
// too few for a steady median, so PATCH latency is reported by the
// traced run (patch.p50_ms.<engine>, patch.p90_ms.<engine>) and a write-side
// cost reaches the end-to-end figures through the CPU it takes from reads.

// patchRecord is one applied PATCH.
type patchRecord struct {
	mode     string
	delta    fairrank.DatasetDelta
	next     *fairrank.Dataset // library-side dataset after the delta
	ms       float64           // PATCH latency from its own send
	repaired bool
}

// revCheck is a set of answers read right after a PATCH returned, while no
// other patch of that dataset was in flight: they must equal the library
// designer at the returned revision.
type revCheck struct {
	record  int // index into churn.log
	queries [][]float64
	got     []answer
}

type churn struct {
	c       *client
	url     string
	r       *rand.Rand
	targets map[string]*readTarget // by engine
	ds      map[string]*fairrank.Dataset
	rev     map[string]uint64
	log     []patchRecord
	checks  map[string][]revCheck
	late    []float64 // ms the round started after its schedule
	ok      []bool    // per round: every PATCH and revision check passed
}

// singleItemDelta removes one random item and appends a fresh one.
func singleItemDelta(r *rand.Rand, ds *fairrank.Dataset) fairrank.DatasetDelta {
	row := make([]float64, ds.D())
	for j := range row {
		row[j] = r.Float64()
	}
	group := "majority"
	if r.Intn(2) == 0 {
		group = "protected"
	}
	return fairrank.DatasetDelta{
		Removed: []int{r.Intn(ds.N())},
		Added:   []fairrank.PatchItem{{Row: row, Types: map[string]string{"group": group}}},
	}
}

// checkQueries is the sample read back after every PATCH.
const checkQueries = 8

func (ch *churn) round(due time.Time) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	ch.late = append(ch.late, float64(time.Since(due).Nanoseconds())/1e6)
	ok := true
	for _, mode := range patchEngines {
		t := ch.targets[mode]
		delta := singleItemDelta(ch.r, ch.ds[mode])
		next, err := fairrank.ApplyDelta(ch.ds[mode], delta)
		if err != nil {
			ok = false
			continue
		}
		wantRev := fairrank.ChainRevision(ch.rev[mode], next.Fingerprint())
		req := patchRequest{Remove: delta.Removed}
		for _, it := range delta.Added {
			req.Add = append(req.Add, patchItem{Row: it.Row, Types: it.Types})
		}
		t0 := time.Now()
		res, err := ch.c.patch(ch.url, t.inst.dataset, req)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil || res.N != next.N() || res.Revision != wantRev || len(res.Designers) != 1 || res.Designers[0].Error != "" {
			ok = false
			continue
		}
		ch.ds[mode], ch.rev[mode] = next, wantRev
		ch.log = append(ch.log, patchRecord{mode: mode, delta: delta, next: next, ms: ms, repaired: res.Designers[0].Repaired})
	}
	for _, mode := range patchEngines {
		ok = ch.readBack(mode) && ok
	}
	ch.ok = append(ch.ok, ok)
}

// readBack asks the designer over mode's dataset for a few hot-pool
// directions and records the answers against the latest PATCH of mode.
func (ch *churn) readBack(mode string) bool {
	last := -1
	for i, rec := range ch.log {
		if rec.mode == mode {
			last = i
		}
	}
	if last < 0 {
		return true
	}
	t := ch.targets[mode]
	rc := revCheck{record: last}
	for k := 0; k < checkQueries; k++ {
		q := t.hot.queries[ch.r.Intn(len(t.hot.queries))]
		a, err := ch.c.suggest(ch.url, t.id, suggestBody(q))
		if err != nil {
			return false
		}
		rc.queries = append(rc.queries, q)
		rc.got = append(rc.got, a)
	}
	ch.checks[mode] = append(ch.checks[mode], rc)
	return true
}

// run schedules rounds every period until dur has passed, concurrently with
// one closed-loop reader, and returns the reader's phase.
func (ch *churn) run(dur, period time.Duration, reads opFunc) loopResult {
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * period)
			if k > 0 && !due.Before(start.Add(dur)) {
				return
			}
			ch.round(due)
		}
	}()
	out := closedLoop(1, dur, reads)
	wg.Wait()
	return out
}

func runPatchChurn(ctx context.Context, cfg runConfig) (*result, error) {
	defs, err := twoEngineDefs(cfg)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.seed))
	c := newClient()
	defer c.close()
	dep, setupS, heapMiB, err := timedSetups(ctx, cfg.sz, c, defs, setupSingle)
	if err != nil {
		return nil, err
	}
	defer dep.stop()
	targets, err := newTargets(r, cfg.sz, defs)
	if err != nil {
		return nil, err
	}
	if err := fillCaches(dep, targets, r, cfg.sz); err != nil {
		return nil, err
	}
	// Reads are not compared while datasets change under them: an answer is
	// only pinned to a revision at the quiescent read-backs after each PATCH.
	loop := newReadLoop(c, cfg, dep, targets, false)
	ch := &churn{c: c, url: dep.nodes[0].url, r: rand.New(rand.NewSource(cfg.seed + 1)),
		targets: map[string]*readTarget{}, ds: map[string]*fairrank.Dataset{}, rev: map[string]uint64{},
		checks: map[string][]revCheck{}}
	for _, t := range targets {
		ch.targets[t.inst.mode] = t
		ch.ds[t.inst.mode] = t.inst.ds
		ch.rev[t.inst.mode] = t.inst.ds.Fingerprint()
	}
	res := newResult()
	res.count(closedLoop(clients, cfg.sz.warm, loop.op))
	period := cfg.sz.patchPeriod

	// phase runs one churn phase and reports the reads, with each round's
	// PATCH and revision checks counted as one more request.
	phase := func(dur time.Duration) loopResult {
		first := len(ch.ok)
		reads := ch.run(dur, period, loop.op)
		for _, ok := range ch.ok[first:] {
			reads.attempted++
			if !ok {
				reads.failed++
			}
		}
		return reads
	}

	if !cfg.traced {
		timed := phase(cfg.dur)
		res.count(timed)
		res.endToEnd(setupS, heapMiB, timed)
		if err := ch.verifyFinal(res); err != nil {
			return nil, err
		}
		res.note("patch-churn: %d PATCHes; the last read-back of each dataset and a fresh read of its hot pool checked against a from-scratch build",
			len(ch.log))
		return res, nil
	}

	tr := &tracedRun{cfg: cfg, res: res, c: c, dep: dep, r: r}
	err = tr.phases(func(tagged bool, dur time.Duration) loopResult {
		loop.tagged = tagged
		return phase(dur)
	})
	if err != nil {
		return nil, err
	}
	final, err := ch.replay(res)
	if err != nil {
		return nil, err
	}
	// The last PATCH flushed the memo caches; fill them again so the layer
	// probes see full caches, as on design-loop.
	if err := fillCaches(dep, targets, r, cfg.sz); err != nil {
		return nil, err
	}
	if err := tr.readLayers(targets, final); err != nil {
		return nil, err
	}
	return res, nil
}

// verifyFinal builds a library designer from scratch over each dataset's
// final state and compares it with the last read-back of that dataset and
// with a fresh read of the hot pool.
func (ch *churn) verifyFinal(res *result) error {
	for _, mode := range patchEngines {
		t := ch.targets[mode]
		oracle, err := t.inst.spec.Oracle.Build(ch.ds[mode])
		if err != nil {
			return err
		}
		cfg, err := t.inst.spec.Config.Build()
		if err != nil {
			return err
		}
		ref, err := fairrank.NewDesigner(ch.ds[mode], oracle, cfg)
		if err != nil {
			return err
		}
		if cs := ch.checks[mode]; len(cs) > 0 {
			last := cs[len(cs)-1]
			for k, q := range last.queries {
				want, err := ref.Suggest(q)
				res.check(err == nil && sameAnswer(last.got[k], want))
			}
		}
		for _, q := range t.hot.queries[:min(len(t.hot.queries), 64)] {
			want, err := ref.Suggest(q)
			a, herr := ch.c.suggest(ch.url, t.id, suggestBody(q))
			res.check(err == nil && herr == nil && sameAnswer(a, want))
		}
	}
	return nil
}

// replay applies the run's deltas, in order, to library designers through
// Designer.Patch: the time of each is the repair cost inside its PATCH, and
// every read-back is compared with the designer at its revision. It returns
// the designers at the final revisions.
func (ch *churn) replay(res *result) (map[string]*fairrank.Designer, error) {
	m := res.metrics
	byRecord := map[int]revCheck{}
	for _, cs := range ch.checks {
		for _, rc := range cs {
			byRecord[rc.record] = rc
		}
	}
	cur := map[string]*fairrank.Designer{}
	for mode, t := range ch.targets {
		cur[mode] = t.inst.ref
	}
	repair := map[string][]float64{}
	httpMs := map[string][]float64{}
	var self []float64
	repaired := 0
	for i, rec := range ch.log {
		oracle, err := ch.targets[rec.mode].inst.spec.Oracle.Build(rec.next)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		next, _, err := cur[rec.mode].Patch(rec.next, oracle, rec.delta)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return nil, fmt.Errorf("library patch: %w", err)
		}
		cur[rec.mode] = next
		repair[rec.mode] = append(repair[rec.mode], ms)
		httpMs[rec.mode] = append(httpMs[rec.mode], rec.ms)
		self = append(self, rec.ms-ms)
		if rec.repaired {
			repaired++
		}
		if rc, ok := byRecord[i]; ok {
			for k, q := range rc.queries {
				want, err := next.Suggest(q)
				res.check(err == nil && sameAnswer(rc.got[k], want))
			}
		}
	}
	for _, mode := range patchEngines {
		m["patch.repair_ms."+mode] = median(repair[mode])
		m["patch.p50_ms."+mode] = median(httpMs[mode])
		m["patch.p90_ms."+mode] = quantile(httpMs[mode], 0.9)
	}
	m["patch.self_ms"] = median(self)
	m["patch.repaired_frac"] = 0
	if len(ch.log) > 0 {
		m["patch.repaired_frac"] = float64(repaired) / float64(len(ch.log))
	}
	m["patch.late_ms"] = median(ch.late)
	res.note("patch-churn: %d PATCHes replayed through the library; %d read-backs compared at their revisions",
		len(ch.log), len(byRecord))
	return cur, nil
}
