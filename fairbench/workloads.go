package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"fairrank"
)

// Every workload runs two client goroutines (the host's nproc) in a closed
// loop: each waits for its reply before sending the next request. See
// README.md for why each workload exists and which layers it stresses.

const clients = 2

// checker compares served replies with the library's answers. A reply
// byte-identical to the expected encoding passes at once; any other reply is
// decoded and compared number by number, so a change of JSON formatting
// alone does not fail the check.
type checker struct {
	corrupt atomic.Bool // alter the next reply's first distance before comparing (self-test)
}

func (k *checker) single(body, reply []byte, want *fairrank.Suggestion) bool {
	corrupt := k.corrupt.CompareAndSwap(true, false)
	if !corrupt && bytes.Equal(body, reply) {
		return true
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return false
	}
	if corrupt {
		a.Distance = math.Nextafter(a.Distance, math.Inf(1))
	}
	return sameAnswer(a, want)
}

func (k *checker) batch(body, reply []byte, want []fairrank.BatchResult) bool {
	corrupt := k.corrupt.CompareAndSwap(true, false)
	if !corrupt && bytes.Equal(body, reply) {
		return true
	}
	var out struct {
		Results []answer `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return false
	}
	if corrupt && len(out.Results) > 0 {
		out.Results[0].Distance = math.Nextafter(out.Results[0].Distance, math.Inf(1))
	}
	return sameBatch(out.Results, want)
}

func newChecker(cfg runConfig) *checker {
	k := &checker{}
	k.corrupt.Store(cfg.corrupt)
	return k
}

// readTarget is one designer the single-query loop reads, with its hot pool
// (repeated directions, memo-cache hits) and fresh pool (cache misses).
type readTarget struct {
	id         string
	inst       *instance
	hot, fresh *pool
}

// newTargets prepares the pools of every designer; designers over the same
// instance share pools (each still has its own memo cache).
func newTargets(r *rand.Rand, sz sizing, defs []designerDef) ([]*readTarget, error) {
	byInst := map[*instance]*readTarget{}
	var out []*readTarget
	for _, d := range defs {
		if t, ok := byInst[d.inst]; ok {
			out = append(out, &readTarget{id: d.id, inst: d.inst, hot: t.hot, fresh: t.fresh})
			continue
		}
		dim := d.inst.ds.D()
		hot, err := newPool(d.inst, directions(r, sz.hot, dim))
		if err != nil {
			return nil, err
		}
		fresh, err := newPool(d.inst, directions(r, sz.fresh, dim))
		if err != nil {
			return nil, err
		}
		t := &readTarget{id: d.id, inst: d.inst, hot: hot, fresh: fresh}
		byInst[d.inst] = t
		out = append(out, t)
	}
	return out, nil
}

// fillCaches asks each designer's owner, in-process, for its hot pool and
// then for filler directions past the memo cache's cap. The cache then holds
// the hot pool and stops inserting, so fresh directions stay misses and the
// hit rate cannot drift while timing.
func fillCaches(dep *deployment, targets []*readTarget, r *rand.Rand, sz sizing) error {
	for _, t := range targets {
		n := dep.owner[t.id]
		for _, q := range t.hot.queries {
			if _, err := n.srv.Suggest(t.id, q); err != nil {
				return fmt.Errorf("fill %s: %w", t.id, err)
			}
		}
		for _, q := range directions(r, sz.fill, t.inst.ds.D()) {
			if _, err := n.srv.Suggest(t.id, q); err != nil {
				return fmt.Errorf("fill %s: %w", t.id, err)
			}
		}
	}
	return nil
}

// readLoop is the design-loop traffic: single-query suggests, half from the
// hot pool and half fresh, cycling over entry nodes and designers.
type readLoop struct {
	c       *client
	chk     *checker
	dep     *deployment
	targets []*readTarget
	check   bool // compare answers with the reference (off while datasets churn)
	tagged  bool // record each request's latency under its entry role
	rngs    []*rand.Rand
	cursor  []int
	bufs    []*bytes.Buffer
}

func newReadLoop(c *client, cfg runConfig, dep *deployment, targets []*readTarget, check bool) *readLoop {
	l := &readLoop{c: c, chk: newChecker(cfg), dep: dep, targets: targets, check: check}
	for i := 0; i < clients; i++ {
		l.rngs = append(l.rngs, rand.New(rand.NewSource(cfg.seed*31+int64(i))))
		l.cursor = append(l.cursor, i*len(targets[0].fresh.bodies)/clients)
		l.bufs = append(l.bufs, new(bytes.Buffer))
	}
	return l
}

func (l *readLoop) op(c, i int) outcome {
	n := l.dep.nodes[i%len(l.dep.nodes)]
	t := l.targets[(i/len(l.dep.nodes))%len(l.targets)]
	p, k := t.fresh, 0
	if l.rngs[c].Intn(2) == 0 {
		p = t.hot
		k = l.rngs[c].Intn(len(p.bodies))
	} else {
		k = l.cursor[c] % len(p.bodies)
		l.cursor[c]++
	}
	lat, err := l.c.timedSuggest(n.url, t.id, p.bodies[k], l.bufs[c])
	ok := err == nil && (!l.check || l.chk.single(l.bufs[c].Bytes(), p.replies[k], p.want[k]))
	o := outcome{lat: lat, queries: 1, ok: ok}
	if l.tagged {
		o.parts = []part{{l.dep.role[t.id][n.id], lat}}
	}
	return o
}

// readLayers runs the layer probes of a single-query workload. refs
// overrides the library designer a target is checked against (patch-churn's
// designers have moved on from their instance's).
func (t *tracedRun) readLayers(targets []*readTarget, refs map[string]*fairrank.Designer) error {
	probes := make([]probeTarget, len(targets))
	insts := map[string]*instance{}
	own := map[string][][]float64{}
	for i, rt := range targets {
		ref := rt.inst.ref
		if r, ok := refs[rt.inst.mode]; ok {
			ref = r
		}
		probes[i] = probeTarget{id: rt.id, node: t.dep.owner[rt.id], inst: rt.inst, ref: ref, hits: rt.hot.queries}
		insts[rt.inst.mode] = rt.inst
		own[rt.inst.mode] = rt.fresh.queries
	}
	if err := t.singleLayers(probes); err != nil {
		return err
	}
	return t.libraryLayers(insts, own)
}

// endToEnd sets the end-to-end metrics. Latency percentiles are taken in
// each of timeWindows equal windows of the timed phase and reported as their
// median over the windows, so one stall (a GC cycle, a noisy neighbour)
// moves one window and not the run's figure. The tail metric is p90, not
// p99: across ten seeds the window-median p99 of the single-query workloads
// spread by up to 22% of its median on a shared 2-vCPU host, close to the
// largest regression bound allowed, and p90 by 6%. Throughput is not an
// end-to-end metric: it is a mean over every request, so the rare long
// stalls of a host that steals CPU from its guests move it far more than
// the percentiles (one ten-seed set: up to 46% spread against 12% for p50).
// The p99 and the whole phase's throughput are printed as notes.
func (r *result) endToEnd(setupS, heapMiB float64, timed loopResult) {
	var p50, p90, p99 []float64
	for _, w := range timed.windows(timeWindows) {
		p50 = append(p50, median(w))
		p90 = append(p90, quantile(w, 0.9))
		p99 = append(p99, quantile(w, 0.99))
	}
	r.metrics["setup_s"] = setupS
	r.metrics["p50_us"] = median(p50)
	r.metrics["p90_us"] = median(p90)
	r.metrics["heap_mb"] = heapMiB
	r.note("timed: %d requests, %d queries answered in %.2fs; percentiles per window of ~%d requests, median over %d windows",
		len(timed.lat), timed.queries, timed.elapsed.Seconds(), len(timed.lat)/timeWindows, timeWindows)
	r.note("windows: p50_us %.1f, p90_us %.1f, p99_us %.1f", p50, p90, p99)
	r.note("not bounded: p99_us %.1f (median over windows), qps %.1f queries/s (whole phase)", median(p99), timed.qps())
}

// design-loop: one node serving a 2D and an approx designer.
func runDesignLoop(ctx context.Context, cfg runConfig) (*result, error) {
	defs, err := twoEngineDefs(cfg)
	if err != nil {
		return nil, err
	}
	return runReads(ctx, cfg, defs, setupSingle)
}

// cluster-read: three nodes, several 2D designers over one dataset, each
// with an owner and one read replica.
func runClusterRead(ctx context.Context, cfg runConfig) (*result, error) {
	inst, err := newInstance(cfg.sz, "2d", "ds-2d")
	if err != nil {
		return nil, err
	}
	var defs []designerDef
	for i := 0; i < cfg.sz.clusterDesigners; i++ {
		defs = append(defs, designerDef{fmt.Sprintf("c2d-%d", i), inst})
	}
	return runReads(ctx, cfg, defs, setupCluster)
}

func twoEngineDefs(cfg runConfig) ([]designerDef, error) {
	var defs []designerDef
	for _, mode := range patchEngines {
		inst, err := newInstance(cfg.sz, mode, "ds-"+mode)
		if err != nil {
			return nil, err
		}
		defs = append(defs, designerDef{"d-" + mode, inst})
	}
	return defs, nil
}

func runReads(ctx context.Context, cfg runConfig, defs []designerDef, setup setupFunc) (*result, error) {
	r := rand.New(rand.NewSource(cfg.seed))
	c := newClient()
	defer c.close()
	dep, setupS, heapMiB, err := timedSetups(ctx, cfg.sz, c, defs, setup)
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
	loop := newReadLoop(c, cfg, dep, targets, true)
	res := newResult()
	res.count(closedLoop(clients, cfg.sz.warm, loop.op))
	if !cfg.traced {
		timed := closedLoop(clients, cfg.dur, loop.op)
		res.count(timed)
		res.endToEnd(setupS, heapMiB, timed)
		return res, nil
	}
	tr := &tracedRun{cfg: cfg, res: res, c: c, dep: dep, r: r}
	err = tr.phases(func(tagged bool, dur time.Duration) loopResult {
		loop.tagged = tagged
		return closedLoop(clients, dur, loop.op)
	})
	if err != nil {
		return nil, err
	}
	if err := tr.readLayers(targets, nil); err != nil {
		return nil, err
	}
	res.zero(patchTraffic...)
	return res, nil
}

// bulk-batch: one node serving a 2D, an approx and an exact designer. One
// request of the loop is a round of three batch requests sent back to back,
// one per engine, each of distinct directions (sizing.batch queries per
// engine); its latency is the round's, and its queries the three batches'.
// The two clients run in lock-step rounds, each cycling over its own
// batches. Batches never touch the memo cache, so repeating a batch costs
// the server the same as a new one.
func runBulkBatch(ctx context.Context, cfg runConfig) (*result, error) {
	insts := map[string]*instance{}
	var defs []designerDef
	for _, mode := range engineNames {
		inst, err := newInstance(cfg.sz, mode, "ds-"+mode)
		if err != nil {
			return nil, err
		}
		insts[mode] = inst
		defs = append(defs, designerDef{"d-" + mode, inst})
	}
	r := rand.New(rand.NewSource(cfg.seed))
	c := newClient()
	defer c.close()
	dep, setupS, heapMiB, err := timedSetups(ctx, cfg.sz, c, defs, setupSingle)
	if err != nil {
		return nil, err
	}
	defer dep.stop()
	sets := map[string][]*batchSet{}
	for _, mode := range engineNames {
		if sets[mode], err = newBatchSets(insts[mode], r, clients, cfg.sz.batchPool[mode], cfg.sz.batch[mode]); err != nil {
			return nil, err
		}
	}
	n := dep.nodes[0]
	chk := newChecker(cfg)
	bufs := []*bytes.Buffer{new(bytes.Buffer), new(bytes.Buffer)}
	tagged := false
	op := func(cl, i int) outcome {
		o := outcome{ok: true}
		for _, mode := range engineNames {
			set := sets[mode][cl]
			k := i % len(set.bodies)
			lat, err := c.timedSuggest(n.url, "d-"+mode, set.bodies[k], bufs[cl])
			ok := err == nil && chk.batch(bufs[cl].Bytes(), set.replies[k], set.want[k])
			o.ok = o.ok && ok
			o.lat += lat
			o.queries += len(set.want[k])
			if tagged {
				o.parts = append(o.parts, part{"batch-" + mode, lat})
			}
		}
		return o
	}
	res := newResult()
	res.count(lockStep(clients, cfg.sz.warm, op))
	if !cfg.traced {
		timed := lockStep(clients, cfg.dur, op)
		res.count(timed)
		res.endToEnd(setupS, heapMiB, timed)
		return res, nil
	}
	tr := &tracedRun{cfg: cfg, res: res, c: c, dep: dep, r: r}
	err = tr.phases(func(t bool, dur time.Duration) loopResult {
		tagged = t
		return lockStep(clients, dur, op)
	})
	if err != nil {
		return nil, err
	}
	p2d := probeTarget{id: "d-2d", node: n, inst: insts["2d"], ref: insts["2d"].ref}
	if err := tr.batchLayers(p2d, sets["2d"][0].queries[0]); err != nil {
		return nil, err
	}
	own := map[string][][]float64{}
	for _, mode := range engineNames {
		own[mode] = sets[mode][0].queries[0]
	}
	if err := tr.libraryLayers(insts, own); err != nil {
		return nil, err
	}
	res.zero(patchTraffic...)
	return res, nil
}
