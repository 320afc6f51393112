package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"fairrank"
)

// The traced run (--trace 1) attributes a workload's time to layers. It runs
// the workload's timed loop twice for half the run each: once exactly as the
// untraced run does, and once with the benchmark's own per-request records
// on (latency by entry role), scraping the server's counters and
// /debug/traces around the second. Then it times calls into each layer's
// public entry point from outside, on a seeded sample of the workload's own
// requests:
//
//	kernel   library Designer.Suggest / SuggestBatch
//	service  in-process Server.Suggest / SuggestBatch
//	http     in-process Server.Handler().ServeHTTP
//	network  the loopback HTTP client
//	build, persist, patch  NewDesigner, SaveIndex / LoadDesigner, Designer.Patch
//
// Differences of the trimmed means give each layer's own share, so
// kernel + service.self + http.self + http.net = http.loopback. Means, not
// medians: a sample mixes engines (and fair and unfair queries) whose costs
// differ a hundredfold, so its median jumps between the modes.

type tracedRun struct {
	cfg runConfig
	res *result
	c   *client
	dep *deployment
	r   *rand.Rand
}

// counters are the server-side observables read around the traced phase.
type counters struct {
	hits, misses                          float64
	replicaLocal, forwards, stale, fwdErr float64
	slots, deduped, resumeHits, chunk     float64
}

func (t *tracedRun) scrape() (counters, error) {
	var k counters
	for id, n := range t.dep.owner {
		st, err := t.c.status(n.url, id)
		if err != nil {
			return k, err
		}
		m := st.Metrics
		k.hits += float64(m.CacheHits)
		k.misses += float64(m.CacheMisses)
		k.slots += float64(m.BatchPlannerSlots)
		k.deduped += m.BatchDedupRate * float64(m.BatchPlannerSlots)
		k.resumeHits += float64(m.ResumeHits)
		k.chunk = max(k.chunk, float64(m.PlannedChunkSize))
	}
	for _, n := range t.dep.nodes {
		s, err := t.c.promSeries(n.url, "fairrank_replica_reads_total", "fairrank_forwards_total",
			"fairrank_replica_stale_forwards_total", "fairrank_forward_failures_total")
		if err != nil {
			return k, err
		}
		k.replicaLocal += sumFamily(s, "fairrank_replica_reads_total", `path="local"`)
		k.forwards += sumFamily(s, "fairrank_forwards_total", "")
		k.stale += sumFamily(s, "fairrank_replica_stale_forwards_total", "")
		k.fwdErr += sumFamily(s, "fairrank_forward_failures_total", "")
	}
	return k, nil
}

// stageMeans reads every node's /debug/traces and returns the trimmed mean
// duration (µs) of each server stage over the suggest traces retained.
func (t *tracedRun) stageMeans() (map[string]float64, error) {
	durs := map[string][]float64{}
	for _, n := range t.dep.nodes {
		var out struct {
			Traces []struct {
				Op    string `json:"op"`
				Spans []struct {
					Name  string `json:"name"`
					DurNs int64  `json:"dur_ns"`
				} `json:"spans"`
			} `json:"traces"`
		}
		if err := t.c.do(http.MethodGet, n.url+"/debug/traces", nil, &out); err != nil {
			return nil, err
		}
		for _, tr := range out.Traces {
			if !strings.HasSuffix(tr.Op, "/suggest") {
				continue
			}
			for _, sp := range tr.Spans {
				durs[sp.Name] = append(durs[sp.Name], float64(sp.DurNs)/1e3)
			}
		}
	}
	out := map[string]float64{}
	for _, s := range traceStages {
		out[s] = trimmedMean(durs[s])
	}
	return out, nil
}

// phases runs the untraced and the traced half and derives the metrics that
// come from live traffic: trace overhead, latency by entry role, bulk-batch
// latency by engine, read split, memo-cache hit fraction, planner counters
// and server stage medians.
func (t *tracedRun) phases(loop func(tagged bool, dur time.Duration) loopResult) error {
	half := t.cfg.dur / 2
	a := loop(false, half)
	before, err := t.scrape()
	if err != nil {
		return err
	}
	b := loop(true, half)
	after, err := t.scrape()
	if err != nil {
		return err
	}
	stages, err := t.stageMeans()
	if err != nil {
		return err
	}
	t.res.count(a)
	t.res.count(b)
	t.res.note("traced: untraced half p50 %.1fus over %d requests, traced half p50 %.1fus over %d requests",
		median(a.lat), len(a.lat), median(b.lat), len(b.lat))
	m := t.res.metrics
	m["trace.overhead_frac"] = median(b.lat)/median(a.lat) - 1
	for _, s := range traceStages {
		m["trace.stage_us."+s] = stages[s]
	}
	own, rep, fwd := median(b.byTag["owner"]), median(b.byTag["replica"]), median(b.byTag["forwarded"])
	m["cluster.owner_us"], m["cluster.replica_us"], m["cluster.forwarded_us"] = own, rep, fwd
	m["cluster.forward_self_us"] = 0
	if fwd > 0 {
		m["cluster.forward_self_us"] = fwd - own
	}
	for _, e := range engineNames {
		m["batch.p50_us."+e] = median(b.byTag["batch-"+e])
	}
	reads := float64(len(b.lat))
	m["cluster.read_split.replica"] = (after.replicaLocal - before.replicaLocal) / reads
	m["cluster.read_split.local"] = 1 - m["cluster.read_split.replica"]
	m["cluster.read_split.forwarded"] = (after.forwards - before.forwards) / reads
	m["cluster.stale_forwards"] = after.stale - before.stale
	m["cluster.forward_failures"] = after.fwdErr - before.fwdErr
	m["service.cache_hit_frac"] = 0
	if d := (after.hits - before.hits) + (after.misses - before.misses); d > 0 {
		m["service.cache_hit_frac"] = (after.hits - before.hits) / d
	}
	m["planner.dedup_rate"] = 0
	if after.slots > 0 {
		m["planner.dedup_rate"] = after.deduped / after.slots
	}
	m["planner.chunk_size"] = after.chunk
	m["planner.resume_hits"] = after.resumeHits
	return nil
}

// probeTarget is one served designer the layer probes call.
type probeTarget struct {
	id   string
	node *node // the designer's owner, so every layer serves it locally
	inst *instance
	ref  *fairrank.Designer // library designer at the served revision
	hits [][]float64        // directions the memo cache holds
}

// probeCount is the sample size per layer; exact queries cost milliseconds,
// so the exact engine gets a quarter of it.
func (t *tracedRun) probeCount(mode string) int {
	if mode == "exact" {
		return max(t.cfg.sz.probe/4, 2)
	}
	return t.cfg.sz.probe
}

func us(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// layerTimes are the central times of one sample timed through each layer.
type layerTimes struct{ kernel, service, handler, loopback float64 }

func (t *tracedRun) setLayers(lt layerTimes, n int, what string) {
	m := t.res.metrics
	m["http.loopback_us"], m["http.handler_us"], m["service.suggest_us"] = lt.loopback, lt.handler, lt.service
	m["http.net_us"] = lt.loopback - lt.handler
	m["http.self_us"] = lt.handler - lt.service
	m["service.self_us"] = lt.service - lt.kernel
	t.res.note("layers: loopback %.2fus = net %.2f + http %.2f + service %.2f + kernel %.2f (over %d %s)",
		lt.loopback, lt.loopback-lt.handler, lt.handler-lt.service, lt.service-lt.kernel, lt.kernel, n, what)
}

// singleLayers times one sample of never-asked directions through every
// layer: library Designer.Suggest, Server.Suggest, the in-process handler
// and the loopback client. The memo caches are full, so nothing is inserted
// and every layer sees the same misses.
func (t *tracedRun) singleLayers(probes []probeTarget) error {
	n := t.cfg.sz.probe
	type item struct {
		p    probeTarget
		q    []float64
		want *fairrank.Suggestion
	}
	items := make([]item, n)
	kernel := make([]float64, n)
	for k := range items {
		p := probes[k%len(probes)]
		q := direction(t.r, p.inst.ds.D())
		t0 := time.Now()
		want, err := p.ref.Suggest(q)
		kernel[k] = us(t0)
		if err != nil {
			return err
		}
		items[k] = item{p, q, want}
	}
	var service, handler, loopback, hit []float64
	for _, it := range items {
		t0 := time.Now()
		s, err := it.p.node.srv.Suggest(it.p.id, it.q)
		service = append(service, us(t0))
		t.res.check(err == nil && sameAnswer(answer{Weights: s.Weights, Distance: s.Distance, AlreadyFair: s.AlreadyFair}, it.want))
	}
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for k, it := range items {
		reqs[k] = httptest.NewRequest(http.MethodPost, "/v1/designers/"+it.p.id+"/suggest", bytes.NewReader(suggestBody(it.q)))
		recs[k] = httptest.NewRecorder()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for k, it := range items {
		h := it.p.node.srv.Handler()
		t0 := time.Now()
		h.ServeHTTP(recs[k], reqs[k])
		handler = append(handler, us(t0))
	}
	runtime.ReadMemStats(&ms1)
	t.res.metrics["http.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	var plain checker
	for k, it := range items {
		t.res.check(recs[k].Code == http.StatusOK && plain.single(recs[k].Body.Bytes(), replyBody(wireOf(it.want)), it.want))
	}
	var buf bytes.Buffer
	for _, it := range items {
		lat, err := t.c.timedSuggest(it.p.node.url, it.p.id, suggestBody(it.q), &buf)
		loopback = append(loopback, float64(lat.Nanoseconds())/1e3)
		t.res.check(err == nil && plain.single(buf.Bytes(), replyBody(wireOf(it.want)), it.want))
	}
	for _, p := range probes {
		for _, q := range p.hits[:min(len(p.hits), n)] {
			t0 := time.Now()
			if _, err := p.node.srv.Suggest(p.id, q); err != nil {
				return err
			}
			hit = append(hit, us(t0))
		}
	}
	t.res.metrics["service.cache_hit_us"] = trimmedMean(hit)
	t.setLayers(layerTimes{trimmedMean(kernel), trimmedMean(service), trimmedMean(handler), trimmedMean(loopback)},
		n, "single queries, trimmed means")

	// The batch path of the same designer, with and without HTTP.
	p := probes[0]
	qs := make([][]float64, t.probeCount(p.inst.mode))
	for k := range qs {
		qs[k] = direction(t.r, p.inst.ds.D())
	}
	lt, err := t.batchTimes(p, qs, 5)
	if err != nil {
		return err
	}
	t.res.metrics["http.batch_self_ns_per_query"] = (lt.handler - lt.service) * 1e3 / float64(len(qs))
	return nil
}

// batchTimes times one batch through every layer reps times and checks the
// HTTP answers. Batches never enter the memo cache, so every layer answers
// the same batch from the kernel.
func (t *tracedRun) batchTimes(p probeTarget, qs [][]float64, reps int) (layerTimes, error) {
	want := p.ref.SuggestBatch(qs)
	reply := batchReply(want)
	body := batchBody(qs)
	var plain checker
	var buf bytes.Buffer
	h := p.node.srv.Handler()
	var kernel, service, handler, loopback []float64
	var ms0, ms1 runtime.MemStats
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		p.ref.SuggestBatch(qs)
		kernel = append(kernel, us(t0))
		t0 = time.Now()
		if _, err := p.node.srv.SuggestBatch(p.id, qs); err != nil {
			return layerTimes{}, err
		}
		service = append(service, us(t0))
		req := httptest.NewRequest(http.MethodPost, "/v1/designers/"+p.id+"/suggest", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, us(t0))
		runtime.ReadMemStats(&ms1)
		t.res.check(rec.Code == http.StatusOK && plain.batch(rec.Body.Bytes(), reply, want))
		lat, err := t.c.timedSuggest(p.node.url, p.id, body, &buf)
		loopback = append(loopback, float64(lat.Nanoseconds())/1e3)
		t.res.check(err == nil && plain.batch(buf.Bytes(), reply, want))
	}
	if mallocs := float64(ms1.Mallocs - ms0.Mallocs); t.res.metrics["http.allocs_per_req"] == 0 {
		t.res.metrics["http.allocs_per_req"] = mallocs
	}
	return layerTimes{median(kernel), median(service), median(handler), median(loopback)}, nil
}

// batchLayers is singleLayers for a batch workload: its own batch request
// timed through every layer, plus the memo-cache hit path on single queries
// (asked once to insert, then timed).
func (t *tracedRun) batchLayers(p probeTarget, qs [][]float64) error {
	reps := 5
	lt, err := t.batchTimes(p, qs, reps)
	if err != nil {
		return err
	}
	t.setLayers(lt, reps, fmt.Sprintf("%d-query batches, medians", len(qs)))
	t.res.metrics["http.batch_self_ns_per_query"] = (lt.handler - lt.service) * 1e3 / float64(len(qs))
	var hit []float64
	for k := 0; k < min(len(qs), 20); k++ {
		q := direction(t.r, p.inst.ds.D())
		if _, err := p.node.srv.Suggest(p.id, q); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := p.node.srv.Suggest(p.id, q); err != nil {
			return err
		}
		hit = append(hit, us(t0))
	}
	t.res.metrics["service.cache_hit_us"] = median(hit)
	return nil
}

// timePasses runs f over and over until at least 20ms have passed and
// returns the median duration of one pass in ns.
func timePasses(f func()) float64 {
	var per []float64
	for total := time.Duration(0); total < 20*time.Millisecond || len(per) < 3; {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		total += d
		per = append(per, float64(d.Nanoseconds()))
	}
	return median(per)
}

// libraryLayers measures kernel, planner, build and persist for every engine
// — the workload's own instances, plus instances generated for the engines
// it does not serve — and the library repair cost where patch-churn did not.
func (t *tracedRun) libraryLayers(insts map[string]*instance, own map[string][][]float64) error {
	m := t.res.metrics
	for _, mode := range engineNames {
		inst := insts[mode]
		if inst == nil {
			var err error
			if inst, err = newInstance(t.cfg.sz, mode, "lib-"+mode); err != nil {
				return err
			}
			insts[mode] = inst
		}
		n := t.probeCount(mode)
		qs := own[mode]
		for len(qs) < n {
			qs = append(qs, direction(t.r, inst.ds.D()))
		}
		qs = qs[:n]

		fair := 0
		for _, q := range qs {
			s, err := inst.ref.Suggest(q)
			if err != nil {
				return fmt.Errorf("%s kernel: %w", mode, err)
			}
			if s.AlreadyFair {
				fair++
			}
		}
		// Per-query means: an exact query costs ≈50 µs when fair and
		// milliseconds when not, so a median would jump between the two.
		loop := timePasses(func() {
			for _, q := range qs {
				inst.ref.Suggest(q) //nolint:errcheck // answered without error just above
			}
		}) / float64(n)
		batch := timePasses(func() { inst.ref.SuggestBatch(qs) }) / float64(n)
		m["kernel.suggest_ns."+mode] = loop
		m["kernel.already_fair_frac."+mode] = float64(fair) / float64(n)
		m["planner.batch_ns_per_query."+mode] = batch
		m["planner.vs_loop_ratio."+mode] = batch / loop

		var idx bytes.Buffer
		if err := inst.ref.SaveIndex(&idx); err != nil {
			return err
		}
		m["build.ms."+mode] = float64(inst.build.Nanoseconds()) / 1e6
		m["build.index_bytes."+mode] = float64(idx.Len())
		oracle, err := inst.spec.Oracle.Build(inst.ds)
		if err != nil {
			return err
		}
		var loadErr error
		m["persist.save_us."+mode] = timePasses(func() { _ = inst.ref.SaveIndex(io.Discard) }) / 1e3
		m["persist.load_us."+mode] = timePasses(func() {
			if _, err := fairrank.LoadDesigner(bytes.NewReader(idx.Bytes()), inst.ds, oracle); err != nil {
				loadErr = err
			}
		}) / 1e3
		if loadErr != nil {
			return loadErr
		}
	}
	for _, mode := range patchEngines {
		if _, done := m["patch.repair_ms."+mode]; done {
			continue
		}
		inst := insts[mode]
		delta := singleItemDelta(t.r, inst.ds)
		next, err := fairrank.ApplyDelta(inst.ds, delta)
		if err != nil {
			return err
		}
		oracle, err := inst.spec.Oracle.Build(next)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, _, err := inst.ref.Patch(next, oracle, delta); err != nil {
			return err
		}
		m["patch.repair_ms."+mode] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return nil
}

// zero sets metrics of layers a workload does not exercise.
func (r *result) zero(names ...string) {
	for _, n := range names {
		if _, ok := r.metrics[n]; !ok {
			r.metrics[n] = 0
		}
	}
}
